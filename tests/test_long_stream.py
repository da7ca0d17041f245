"""``tools/long_stream.py`` at a thousand records: its JSON, and its stream
resolving like the one-shot workflow."""

import importlib.util
import json
from pathlib import Path

from repro.core.workflow import HybridWorkflow
from repro.datasets.restaurant import RestaurantGenerator

TOOL = Path(__file__).resolve().parent.parent / "tools" / "long_stream.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("long_stream", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_report_has_every_field_and_ten_deciles(tmp_path, capsys):
    output = tmp_path / "stream.json"
    report = load_tool().main(["--records", "1000", "--seed", "3", "--output", str(output)])
    assert json.loads(output.read_text()) == report == json.loads(capsys.readouterr().out)
    assert set(report) == {
        "records", "batch_size", "seed", "wall_s", "append_ms", "peak_rss_mb",
        "candidates", "matches", "hits",
    }
    assert (report["records"], report["batch_size"], report["seed"]) == (1000, 250, 3)
    # Four appends of 250: deciles of the four, the empty ones left out.
    assert sum(row["appends"] for row in report["append_ms"]) == 4
    for row in report["append_ms"]:
        assert set(row) == {"appends", "p50", "p99"}
        assert 0 < row["p50"] <= row["p99"]
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0 and report["hits"] > 0


def test_the_stream_matches_the_one_shot_workflow():
    tool = load_tool()
    dataset = RestaurantGenerator(1000, 125, seed=7).generate()
    report, streamed = tool.stream(dataset, seed=7)
    one_shot = HybridWorkflow(tool.config(7)).resolve(dataset)
    assert set(streamed.matches) == set(one_shot.matches)
    assert report["matches"] == len(one_shot.matches) > 0
    assert report["candidates"] == one_shot.candidate_count
