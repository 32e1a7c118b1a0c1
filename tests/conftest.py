"""Shared fixtures: small MiniC programs and session-cached compilations."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.backend import compile_minic
from repro.machine import execute, load_binary


#: A small but structurally rich program used across backend/machine tests.
DEMO_SOURCE = """
double grid[16];
int N = 16;

double dot(double* a, double* b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    s = s + a[i] * b[i];
  }
  return s;
}

int fact(int n) {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}

int main() {
  for (int i = 0; i < N; i = i + 1) {
    grid[i] = (double)i * 0.5 + 1.0;
  }
  print_double(dot(grid, grid, N));
  print_int(fact(6));
  return 0;
}
"""

#: dot(grid, grid, 16) with grid[i] = i*0.5 + 1.
DEMO_DOT = sum((i * 0.5 + 1.0) ** 2 for i in range(16))


def hostable(tool_name: str, spec: str) -> bool:
    """Whether the tool can run the fault model ``spec`` (LLFI, at the IR
    level, cannot corrupt instruction encodings)."""
    from repro.errors import CampaignError
    from repro.fi.models import parse_fault_model
    from repro.fi.tools import TOOL_CLASSES

    try:
        parse_fault_model(spec).check_tool(TOOL_CLASSES[tool_name])
    except CampaignError:
        return False
    return True


#: Wall budget of one tier-1 (non-``slow``) test.  The slowest honest one
#: takes ~6 s on the reference box; a test that sits out a network timeout
#: or a backoff window takes minutes, and must fail here instead of
#: silently multiplying the edit loop.
TEST_WALL_BUDGET_S = 30.0


@pytest.fixture(autouse=True)
def _wall_budget(request):
    started = time.monotonic()
    yield
    wall = time.monotonic() - started
    if wall > TEST_WALL_BUDGET_S and request.node.get_closest_marker("slow") is None:
        pytest.fail(
            f"took {wall:.1f} s; tier-1 tests get {TEST_WALL_BUDGET_S:.0f} s "
            "(mark it slow or fix what it waits for)"
        )


def descendants() -> set[int]:
    """Pids of the live (not zombie) processes below this one, children of
    children included, read from ``/proc``."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # pid (comm) state ppid ...
                state, ppid = stat.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue  # gone since listdir
        if state != "Z":
            parent_of[int(entry)] = int(ppid)
    found: set[int] = set()
    frontier = {os.getpid()}
    while frontier:
        frontier = {p for p, pp in parent_of.items() if pp in frontier} - found
        found |= frontier
    return found


@pytest.fixture(scope="session", autouse=True)
def _no_process_outlives_the_session():
    """Harnesses and pools own their processes: whatever a test started, it
    reaped — none is left for the interpreter's exit to wait on or orphan."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes outlive the test session: {left}"
    if os.path.isdir("/proc"):
        assert not descendants()


def run_minic(source: str, opt_level: str = "O2", budget: int | None = None):
    """Compile and execute MiniC; returns the ExecutionResult."""
    binary = compile_minic(source, "test", _options(opt_level))
    return execute(load_binary(binary), budget)


def _options(opt_level: str):
    from repro.backend.compiler import CompileOptions

    return CompileOptions(opt_level=opt_level)


@pytest.fixture(scope="session")
def demo_binary():
    return compile_minic(DEMO_SOURCE, "demo")


@pytest.fixture(scope="session")
def demo_program(demo_binary):
    return load_binary(demo_binary)


@pytest.fixture(scope="session")
def demo_result(demo_program):
    return execute(demo_program)


def request_for(spec, tools=None) -> dict:
    """The service request that populates to ``spec``'s cell (to one cell
    per tool of ``tools``, alike in everything else): a request carries its
    ``sources`` and spells any ``CampaignSpec`` field."""
    fields = spec.to_dict()
    workload, source = fields.pop("workload"), fields.pop("source")
    tool = fields.pop("tool_name")
    return {
        "workloads": [workload], "tools": list(tools or [tool]),
        "sources": {workload: source}, **fields,
    }


def collect(svc, cid: int, timeout: float = 120.0) -> dict:
    """Watch campaign ``cid`` of a ``LocalService`` to ``done`` and fetch
    it: ``{(workload, tool): CampaignResult}``."""
    from repro.campaign.io import result_from_dict

    final = svc.client.watch(cid, timeout=timeout)
    assert final["info"]["state"] == "done", final["info"]
    return {
        tuple(key.split("/")): result_from_dict(cell)
        for key, cell in svc.client.fetch(cid)["results"].items()
    }


def serve(svc, request, timeout: float = 120.0) -> dict:
    """Submit ``request`` to a ``LocalService`` and :func:`collect` it."""
    return collect(svc, svc.client.submit(request), timeout)


def wait_progress(client, cid, at_least, deadline_s=120.0):
    """Poll until at least ``at_least`` experiments of ``cid`` completed."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        status = client.status(cid)
        done = sum(
            c["completed"] for c in status.get("progress", {}).values()
        )
        state = status["info"]["state"]
        if done >= at_least and state == "running":
            return status
        if state not in ("queued", "populating", "running"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"campaign {cid} never reached {at_least} done")


def lease_task(client, timeout: float = 30.0) -> dict:
    """A hand-driven ``CoordinatorClient`` asks until it holds a lease of a
    slice, answering any plan it is handed on the way as an honest worker
    would (the pump admits a submitted campaign in its own time; until then
    the service answers ``wait``)."""
    deadline = time.monotonic() + timeout
    while True:
        reply = client.request_task()
        if reply["type"] == "lease":
            return reply
        if reply["type"] == "plan":
            client.complete_plan(reply["task_id"], *run_lease(reply))
            continue
        assert reply["type"] == "wait", reply
        assert time.monotonic() < deadline, "never granted a lease"


def plan_by_hand(sock) -> dict:
    """On a greeted raw worker connection: ask for work, get a cell's plan
    and answer it as an honest worker would.  Returns the plan."""
    from repro.dist.protocol import encode_plan, recv_message, send_message

    send_message(sock, {"type": "request"})
    plan = recv_message(sock)
    assert plan["type"] == "plan", plan
    send_message(sock, {
        "type": "plan_result", "task_id": plan["task_id"],
        **encode_plan(*run_lease(plan)),
    })
    assert recv_message(sock) == {"type": "ok", "duplicate": False}
    return plan


def run_lease(lease: dict):
    """What an honest worker computes for ``lease``: a slice's part, or a
    plan's trigger order and program."""
    from repro.campaign import CampaignSpec, run_plan, run_slice
    from repro.dist import decode_indices

    spec = CampaignSpec.from_dict(lease["spec"])
    run = run_plan if lease["type"] == "plan" else run_slice
    return run(spec, decode_indices(lease["indices"], spec.n))
