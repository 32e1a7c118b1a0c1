"""Workload lifecycle contract: ``describe / populate / run / validate``.

The service treats every campaign as an instance of a *lifecycle* (the
testy pattern): a named object that knows how to describe a campaign
request, populate it into concrete :class:`~repro.dist.protocol.CampaignSpec`
cells, feed those cells to a coordinator, and validate the drained results.
Lifecycles register by name in :mod:`repro.workloads` (next to the
workload registry they draw programs from) and queue rows carry the name,
so a restarted service re-binds each recovered campaign to its behaviour.

Two lifecycles ship:

* ``standard`` — campaigns over registered workloads (or inline sources
  carried by the request); validation is a chi-squared regression check
  of each cell's outcome distribution against its pinned baseline in the
  results database (first run pins).
* ``soak`` — the fuzz-miner used by ``refine-service --soak``: same
  populate/run, but a validation *failure* is treated as a mined
  divergence and filed as a reducer input artifact instead of only a
  verdict.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.campaign.cell import DEFAULT_SEED, CampaignSpec
from repro.campaign.results import CampaignResult
from repro.errors import DistError, ServiceError, WorkloadError
from repro.workloads import workload_sources


class WorkloadLifecycle:
    """Base lifecycle: the standard behaviour, hooks for subclasses.

    A lifecycle is stateless — all per-campaign state lives in the queue
    row's request dict and the results database, so one instance serves
    every campaign (and survives nothing, by design).
    """

    #: registry key; queue rows reference lifecycles by this name
    name = "standard"

    # ------------------------------------------------------------ describe

    def describe(self, request: dict) -> dict:
        """Summarize (and structurally check) a campaign request.

        Called at submit time so an unworkable request is rejected at the
        wire instead of failing in the pump later.  Returns the summary
        dict stored alongside the verdict.
        """
        workloads = request.get("workloads")
        tools = request.get("tools")
        n = request.get("n")
        if (
            not isinstance(workloads, list) or not workloads
            or not all(isinstance(w, str) for w in workloads)
        ):
            raise ServiceError("request needs a non-empty 'workloads' list")
        if (
            not isinstance(tools, list) or not tools
            or not all(isinstance(t, str) for t in tools)
        ):
            raise ServiceError("request needs a non-empty 'tools' list")
        if not isinstance(n, int) or n < 1:
            raise ServiceError("request needs an integer 'n' >= 1")
        sources = request.get("sources", {})
        if not isinstance(sources, dict):
            raise ServiceError("'sources' must map workload name -> MiniC")
        from repro.workloads import workload_names

        unknown = [
            w for w in workloads
            if w not in sources and w not in workload_names()
        ]
        if unknown:
            raise ServiceError(
                f"unknown workloads (not registered, no inline source): "
                f"{unknown}"
            )
        return {
            "lifecycle": self.name,
            "workloads": list(workloads),
            "tools": list(tools),
            "cells": len(workloads) * len(tools),
            "n": n,
            "experiments": len(workloads) * len(tools) * n,
        }

    # ------------------------------------------------------------ populate

    def sources_for(self, request: dict) -> dict[str, str]:
        """workload name -> MiniC source for this request: inline
        ``sources`` override (custom programs, fuzz cases) falling back to
        the workload registry."""
        inline = request.get("sources", {})
        out: dict[str, str] = {}
        registry: dict[str, str] | None = None
        for name in request["workloads"]:
            if name in inline:
                out[name] = inline[name]
                continue
            if registry is None:
                registry = workload_sources()
            if name not in registry:
                raise WorkloadError(
                    f"unknown workload {name!r} (not registered, no inline "
                    f"source in the request)"
                )
            out[name] = registry[name]
        return out

    def populate(self, request: dict) -> list[CampaignSpec]:
        """Expand a request into one :class:`CampaignSpec` per cell.

        Raises :class:`ServiceError` (wrapping spec validation) on a
        request that cannot be populated — the pump marks the campaign
        ``failed`` with the message.
        """
        self.describe(request)
        sources = self.sources_for(request)
        specs = []
        for workload in request["workloads"]:
            for tool in request["tools"]:
                try:
                    # The request spells the spec's own fields; any other
                    # key is ignored, never an error (``from_dict``: queue
                    # rows that name an engine or a schedule must still run).
                    specs.append(CampaignSpec.from_dict({
                        **request, "workload": workload,
                        "source": sources[workload], "tool_name": tool,
                    }))
                except DistError as exc:
                    raise ServiceError(
                        f"cannot populate {workload}/{tool}: {exc}"
                    ) from exc
        return specs

    # ----------------------------------------------------------------- run

    def run(self, coordinator, specs: list[CampaignSpec],
            checkpoint_dir: str | Path | None) -> list[tuple[str, str]]:
        """Hand the populated cells to a live coordinator; returns the
        cell keys now being served."""
        return coordinator.add_cells(specs, checkpoint_dir)

    # ------------------------------------------------------------ validate

    def validate(
        self,
        request: dict,
        results: dict[tuple[str, str], CampaignResult],
        db,
    ) -> dict:
        """Judge a drained campaign's results; returns the verdict dict
        (``{"overall": .., "cells": {key: {..}}}``).

        The default is the chi-squared regression check against pinned
        baselines (see :mod:`repro.service.validate`); ``db`` is the
        :class:`~repro.resultsdb.ResultsDB` (or ``None``, in which case
        validation is skipped entirely).
        """
        from repro.service.validate import validate_results

        if db is None or not request.get("validate", True):
            return {"overall": "skipped", "cells": {}}
        return validate_results(
            db, results,
            base_seed=request.get("base_seed", DEFAULT_SEED),
            alpha=request.get("alpha", 0.05),
            pin_missing=request.get("pin_missing", True),
            source=f"service:{self.name}",
        )


class StandardLifecycle(WorkloadLifecycle):
    """The default lifecycle (explicit class for registry symmetry)."""

    name = "standard"


class SoakLifecycle(WorkloadLifecycle):
    """Soak-mode lifecycle: divergences become reducer inputs.

    A soak campaign replays a deterministic seeded cell against its pinned
    baseline with a *strict* alpha (false positives are expensive: each
    failure files an artifact).  On a failed verdict the campaign's
    request, per-cell verdicts and MiniC sources are written under the
    service's artifacts directory in the same spirit as the fuzzer's
    failure corpus — ready to feed ``refine-fuzz``'s reducer.
    """

    name = "soak"

    #: soak verdicts use this alpha unless the request overrides it
    DEFAULT_ALPHA = 0.001

    def validate(self, request, results, db) -> dict:
        request = dict(request)
        request.setdefault("alpha", self.DEFAULT_ALPHA)
        verdict = super().validate(request, results, db)
        if verdict["overall"] == "failed":
            artifact = self._file_divergence(request, verdict)
            if artifact is not None:
                verdict["artifact"] = artifact
        return verdict

    def _file_divergence(self, request: dict, verdict: dict) -> str | None:
        root = request.get("artifacts")
        if not root:
            return None
        directory = Path(root)
        directory.mkdir(parents=True, exist_ok=True)
        stamp = int(time.time() * 1000)
        path = directory / f"soak_divergence_{stamp}.json"
        payload = {
            "kind": "soak-divergence",
            "request": request,
            "verdict": verdict,
            "sources": self.sources_for(request),
            "repro": [
                f"refine-campaign -w {w} -t {t} -n {request['n']} "
                f"--seed {request.get('base_seed', DEFAULT_SEED)}"
                for w in request["workloads"] for t in request["tools"]
            ],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return str(path)


# The built-ins register on import; repro.workloads.get_lifecycle loads this
# module lazily, so naming a lifecycle anywhere in the system finds these.
from repro.workloads import register_lifecycle  # noqa: E402

register_lifecycle(StandardLifecycle())
register_lifecycle(SoakLifecycle())
