"""Tests for the distributed wire protocol: framing, index encoding and
campaign specs."""

import json
import socket
import struct

import pytest

from repro.dist.protocol import (
    MAX_MESSAGE_BYTES,
    CampaignSpec,
    decode_indices,
    encode_indices,
    recv_message,
    send_message,
)
from repro.errors import CampaignSpecError, DistError

from tests.conftest import DEMO_SOURCE


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        message = {"type": "hello", "name": "wörker-π", "procs": 3}
        send_message(a, message)
        assert recv_message(b) == message

    def test_multiple_messages_keep_frame_boundaries(self, pair):
        a, b = pair
        sent = [{"type": "request"}, {"type": "heartbeat"},
                {"type": "result", "task_id": 7, "part": {"n": [1, 2, 3]}}]
        for message in sent:
            send_message(a, message)
        assert [recv_message(b) for _ in sent] == sent

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert recv_message(b) is None

    def test_torn_payload_raises(self, pair):
        a, b = pair
        payload = json.dumps({"type": "request"}).encode()
        a.sendall(struct.pack(">I", len(payload)) + payload[:3])
        a.close()
        with pytest.raises(DistError, match="mid-message"):
            recv_message(b)

    def test_header_without_payload_raises(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", 10))
        a.close()
        with pytest.raises(DistError):
            recv_message(b)

    def test_oversize_frame_rejected_before_allocation(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
        with pytest.raises(DistError, match="exceeds protocol limit"):
            recv_message(b)

    def test_garbage_payload_raises(self, pair):
        a, b = pair
        payload = b"\xff\xfenot json"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(DistError, match="malformed"):
            recv_message(b)

    @pytest.mark.parametrize("payload", [b"[1,2,3]", b'"hi"', b'{"no":1}'])
    def test_non_message_json_raises(self, pair, payload):
        a, b = pair
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(DistError, match="'type'"):
            recv_message(b)

    def test_send_on_closed_socket_raises_disterror(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(DistError, match="sending"):
            send_message(a, {"type": "request"})


class TestIndexEncoding:
    def test_contiguous_run_is_one_range(self):
        assert encode_indices((4, 5, 6, 7)) == [[4, 8]]

    def test_gaps_split_ranges(self):
        assert encode_indices((0, 1, 5, 6, 9)) == [[0, 2], [5, 7], [9, 10]]

    def test_empty(self):
        assert encode_indices(()) == []
        assert decode_indices([], 0) == ()

    def test_round_trip(self):
        indices = (0, 1, 2, 10, 11, 40)
        assert decode_indices(encode_indices(indices), 41) == indices

    def test_order_is_kept(self):
        # leases are trigger-ordered, not sorted
        assert encode_indices((5, 6, 2, 3, 4)) == [[5, 7], [2, 5]]
        assert decode_indices([[5, 7], [2, 5]], 8) == (5, 6, 2, 3, 4)

    @pytest.mark.parametrize("ranges", [
        [[0, 10**12]],        # would be materialised element by element
        [[5, 3]],             # runs backwards
        [[-1, 2]],            # starts before the cell
        [[0, 9]],             # ends past it
        [[0, 6], [0, 6]],     # more indices than the cell has experiments
    ])
    def test_decode_rejects_what_does_not_fit_the_cell(self, ranges):
        with pytest.raises(ValueError, match="does not fit a cell of 8"):
            decode_indices(ranges, 8)


class TestCampaignSpec:
    def _spec(self, **overrides):
        kwargs = dict(
            workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=8
        )
        kwargs.update(overrides)
        return CampaignSpec(**kwargs)

    def test_dict_round_trip(self):
        spec = self._spec(keep_records=True, base_seed=99)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_dict_survives_json(self):
        spec = self._spec()
        data = json.loads(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_dict(data) == spec

    def test_key_is_matrix_cell(self):
        assert self._spec().key == ("demo", "REFINE")

    def test_slice_task_carries_all_parameters(self):
        # A slice is (spec, indices): the part comes back for exactly those
        # experiments of exactly that campaign.
        from repro.campaign import run_slice
        from repro.utils.rng import derive_seed

        spec = self._spec(keep_records=True, base_seed=99)
        part = run_slice(spec, (2, 3, 4))
        assert sorted(rec.index for rec in part.records) == [2, 3, 4]
        assert (part.workload, part.tool) == ("demo", "REFINE")
        assert {rec.seed for rec in part.records} == {
            derive_seed(spec.base_seed, "demo", "REFINE", i) for i in (2, 3, 4)
        }
        assert spec.make_tool().name == "REFINE"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"tool_name": "NOPE"},
            {"fi_instrs": "bogus"},
            {"opcode_faults": 1.5},
        ],
    )
    def test_invalid_spec_raises(self, overrides):
        # through ``from_dict``, the door a request or a queued spec takes
        data = {**self._spec().to_dict(), **overrides}
        with pytest.raises(DistError):
            CampaignSpec.from_dict(data)

    @pytest.mark.parametrize("probability", [0.3, 1.0])
    def test_retired_opcode_probability_is_refused(self, probability):
        # a request still asking to mix OP-code faults in must not quietly
        # run plain single-bit
        data = {**self._spec().to_dict(), "opcode_faults": probability}
        with pytest.raises(CampaignSpecError, match='fault_model="opcode"'):
            CampaignSpec.from_dict(data)

    @pytest.mark.parametrize("probability", [0, 0.0])
    def test_retired_opcode_probability_of_zero_is_dropped(self, probability):
        spec = self._spec()
        data = {**spec.to_dict(), "opcode_faults": probability}
        assert CampaignSpec.from_dict(data) == spec

    def test_invalid_spec_is_catchable_as_either_family(self):
        # the spec configures local runners and travels the wire
        from repro.errors import CampaignError

        for family in (CampaignError, DistError):
            with pytest.raises(family, match="unknown tool"):
                self._spec(tool_name="NOPE")

    def test_valid_means_the_tool_can_be_built(self):
        # what used to surface only when a worker built the tool
        with pytest.raises(DistError, match="instruction encoding"):
            self._spec(tool_name="LLFI", fault_model="opcode")
        with pytest.raises(DistError, match="unknown fault model"):
            self._spec(fault_model="cosmic-ray")

    def test_fault_model_is_held_canonical(self):
        # workers report the canonical spelling; a spec that kept the
        # user's would see its own parts as another model's
        spec = self._spec(fault_model="stuck-at:value=1,dwell=5")
        assert spec.fault_model == "stuck-at:dwell=5"
        assert spec.fault_model == spec.make_tool().fault_model.spec
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_missing_field_raises(self):
        data = self._spec().to_dict()
        del data["source"]
        with pytest.raises(DistError, match="malformed campaign spec"):
            CampaignSpec.from_dict(data)
