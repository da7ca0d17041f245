"""Count gates read from traced harness smoke runs.

Counts, not times, so they hold on a noisy machine: a traced ``--smoke``
run of a workload repeats its counters exactly for a seed.

* **O(delta) aggregation.** Under majority a streaming append feeds the
  aggregator exactly the votes the crowd just cast, so ``stream-mem``'s
  ``aggregation.reaggregation_ratio`` is 1.0.  Above 1.0, whole dirty
  components are being re-aggregated again.
* **Deltas on the wire.** A mutation answers with what its event changed,
  so ``serve-http`` at seed 7 sends 48 requests and at most 800 response
  bytes per request (35,265 bytes over 48 requests = 735; answering
  with the whole resolution read 2,039 per request).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "harness" / "run.py"


@pytest.mark.gate
def test_traced_smokes_hold_the_aggregation_and_wire_counts():
    invocations = {
        "stream-mem": ["--workload", "stream-mem"],
        "serve-http": ["--workload", "serve-http", "--seed", "7"],
    }
    processes = {
        name: subprocess.Popen(
            [sys.executable, str(RUN), "--smoke", "--trace", "1", *arguments],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name, arguments in invocations.items()
    }
    metrics = {}
    for name, process in processes.items():
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, f"{name}: {err[-2000:]}"
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] is True, name
        metrics[name] = {key: entry["value"] for key, entry in result["metrics"].items()}

    ratio = metrics["stream-mem"]["aggregation.reaggregation_ratio"]
    assert ratio == 1.0, f"aggregation.reaggregation_ratio is {ratio}, expected 1.0"
    served = metrics["serve-http"]
    requests = served["service.requests"]
    per_request = served["service.response_bytes"] / requests
    assert requests == 48, f"service.requests is {requests}, expected 48"
    assert per_request <= 800, f"{per_request:.0f} response bytes per request, ceiling 800"
