"""Tests for the command-line interface."""

import os
import re

import pytest

from repro.cli import build_parser, load_dataset, main


class TestLoadDataset:
    def test_known_datasets(self):
        dataset = load_dataset("product", scale=0.05, seed=1)
        assert dataset.name == "product"
        dataset = load_dataset("product-dup", scale=0.05, seed=1)
        assert dataset.name == "product+dup"

    def test_paper_example_dataset(self):
        dataset = load_dataset("paper-example", scale=1.0, seed=0)
        assert dataset.record_count == 9
        assert dataset.match_count == 4

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            load_dataset("unknown", scale=1.0, seed=0)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_resolve_options(self):
        args = build_parser().parse_args(
            ["resolve", "--dataset", "restaurant", "--threshold", "0.4", "--qualification-test"]
        )
        assert args.dataset == "restaurant"
        assert args.threshold == 0.4
        assert args.qualification_test is True
        assert args.join_backend == "auto"

    def test_parses_join_backend(self):
        args = build_parser().parse_args(["resolve", "--join-backend", "naive"])
        assert args.join_backend == "naive"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resolve", "--join-backend", "quantum"])

    @pytest.mark.parametrize("retired", ("prefix", "vectorized", "parallel"))
    def test_retired_join_backends_are_rejected_naming_the_two(self, retired, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resolve", "--join-backend", retired])
        message = capsys.readouterr().err
        assert "'auto'" in message and "'naive'" in message


class TestCommands:
    def test_threshold_table_command(self, capsys):
        exit_code = main(
            ["threshold-table", "--dataset", "product", "--scale", "0.05",
             "--thresholds", "0.4", "0.2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Likelihood-threshold selection" in output
        assert "0.400" in output

    def test_generate_hits_command(self, capsys):
        exit_code = main(
            ["generate-hits", "--dataset", "product", "--scale", "0.05",
             "--threshold", "0.3", "--cluster-size", "6",
             "--algorithm", "two-tiered", "--algorithm", "bfs"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "two-tiered" in output and "bfs" in output
        assert "True" in output  # valid covers

    def test_resolve_command(self, capsys):
        exit_code = main(
            ["resolve", "--dataset", "product", "--scale", "0.05", "--threshold", "0.3",
             "--cluster-size", "6", "--seed", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "precision / recall" in output
        assert "crowd cost" in output

    def test_resolve_command_backends_agree(self, capsys):
        """The kernel and the oracle drive the workflow to the same output."""
        outputs = {}
        for backend in ("auto", "naive"):
            exit_code = main(
                ["resolve", "--dataset", "product", "--scale", "0.05", "--threshold", "0.3",
                 "--cluster-size", "6", "--seed", "2", "--join-backend", backend]
            )
            assert exit_code == 0
            outputs[backend] = capsys.readouterr().out
        assert len(set(outputs.values())) == 1

    def test_resolve_stream_command(self, capsys):
        exit_code = main(
            ["resolve-stream", "--dataset", "product", "--scale", "0.05",
             "--threshold", "0.3", "--cluster-size", "6", "--seed", "2",
             "--batch-size", "20"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "dirty" in output and "clean components" in output
        assert "precision / recall" in output

    def test_parses_resolve_stream_options(self):
        args = build_parser().parse_args(
            ["resolve-stream", "--batch-size", "32", "--aggregation-scope", "global"]
        )
        assert args.batch_size == 32
        assert args.aggregation_scope == "global"
        assert args.checkpoint_dir is None
        assert args.resume is False
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resolve-stream", "--aggregation-scope", "galaxy"])
        for retired in ("--recrowd-policy", "--staleness-epsilon"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["resolve-stream", retired, "0"])

    def test_parses_checkpoint_options(self):
        args = build_parser().parse_args(
            ["resolve-stream", "--checkpoint-dir", "/tmp/x", "--checkpoint-every",
             "3", "--max-batches", "2", "--resume"]
        )
        assert args.checkpoint_dir == "/tmp/x"
        assert args.checkpoint_every == 3
        assert args.max_batches == 2
        assert args.resume is True


class TestCheckpointResume:
    """The durable-session round trip, end to end through the CLI."""

    STREAM_ARGS = ["resolve-stream", "--dataset", "paper-example",
                   "--threshold", "0.3", "--batch-size", "3", "--seed", "2"]

    @staticmethod
    def _final_matches(output):
        return int(re.search(r"matches found\s*:\s*(\d+)", output).group(1))

    @pytest.mark.parametrize("backend", ("memory", "sqlite"))
    def test_checkpoint_then_resume_matches_uninterrupted_run(
        self, tmp_path, capsys, backend
    ):
        checkpoint = str(tmp_path / "session")
        # Uninterrupted reference run.
        assert main(self.STREAM_ARGS) == 0
        reference = capsys.readouterr().out
        # Interrupted run: two batches, checkpoint, then resume the rest.
        assert main(self.STREAM_ARGS + ["--checkpoint-dir", checkpoint,
                                        "--storage-backend", backend,
                                        "--max-batches", "2"]) == 0
        first_half = capsys.readouterr().out
        assert "resume" in first_half
        # The command closed its session: one file, no WAL left behind.
        assert os.listdir(checkpoint) == ["store.sqlite"]
        assert main(self.STREAM_ARGS + ["--checkpoint-dir", checkpoint,
                                        "--resume"]) == 0
        assert os.listdir(checkpoint) == ["store.sqlite"]
        second_half = capsys.readouterr().out
        assert "resumed session" in second_half
        # Identical final match set (and full tail summary).
        assert self._final_matches(second_half) == self._final_matches(reference)
        assert reference.splitlines()[-6:] == second_half.splitlines()[-6:]

    def test_sqlite_backend_requires_checkpoint_dir(self, capsys):
        assert main(self.STREAM_ARGS + ["--storage-backend", "sqlite"]) == 2
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    def test_the_store_location_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(self.STREAM_ARGS + ["--storage-path", "/tmp/elsewhere.sqlite"])
        assert "--storage-path" in capsys.readouterr().err

    def test_resume_of_a_newer_store_format_exits_2(self, tmp_path, capsys, monkeypatch):
        from repro.streaming import persistence

        checkpoint = str(tmp_path / "session")
        with monkeypatch.context() as patched:
            patched.setattr(persistence, "FORMAT_VERSION", 99)
            assert main(self.STREAM_ARGS + ["--checkpoint-dir", checkpoint,
                                            "--max-batches", "2"]) == 0
        capsys.readouterr()
        assert main(self.STREAM_ARGS + ["--checkpoint-dir", checkpoint, "--resume"]) == 2
        assert "store format 99" in capsys.readouterr().err

    def test_resume_names_every_flag_the_stored_config_overrides(self, tmp_path, capsys):
        """A resumed session runs under its stored configuration; every field
        the flags would set differently is named on stderr (not just a hand
        list of them), and the session's own directory is not a conflict."""
        checkpoint = str(tmp_path / "session")
        assert main(self.STREAM_ARGS + ["--checkpoint-dir", checkpoint,
                                        "--max-batches", "2"]) == 0
        capsys.readouterr()
        assert main(self.STREAM_ARGS + ["--checkpoint-dir", checkpoint, "--resume",
                                        "--hit-type", "pair", "--cluster-size", "4",
                                        "--storage-backend", "sqlite",
                                        "--checkpoint-every", "3"]) == 0
        note = capsys.readouterr().err
        assert "keeps the session's stored configuration" in note
        for named in ("hit_type='pair' (session: 'cluster')",
                      "cluster_size=4 (session: 10)",
                      "storage_backend='sqlite' (session: 'memory')",
                      "checkpoint_every_batches=3 (session: 16)"):
            assert named in note
        assert "checkpoint_dir" not in note and "threshold" not in note
        # Flags that agree with the stored session draw no note.
        assert main(self.STREAM_ARGS + ["--checkpoint-dir", checkpoint, "--resume"]) == 0
        assert "stored configuration" not in capsys.readouterr().err

    def test_resume_keeps_the_stored_threshold(self, tmp_path, capsys):
        """A different ``--threshold`` on resume is named, not applied: the
        session finishes exactly as an uninterrupted run at its own one."""
        checkpoint = str(tmp_path / "session")
        assert main(self.STREAM_ARGS) == 0
        reference = capsys.readouterr().out
        assert main(self.STREAM_ARGS + ["--checkpoint-dir", checkpoint,
                                        "--max-batches", "2"]) == 0
        capsys.readouterr()
        other_threshold = [
            "0.5" if previous == "--threshold" else arg
            for previous, arg in zip([None] + self.STREAM_ARGS, self.STREAM_ARGS)
        ]
        assert main(other_threshold + ["--checkpoint-dir", checkpoint, "--resume"]) == 0
        captured = capsys.readouterr()
        assert "likelihood_threshold=0.5 (session: 0.3)" in captured.err
        assert reference.splitlines()[-6:] == captured.out.splitlines()[-6:]

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(self.STREAM_ARGS + ["--resume"]) == 2
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    def test_retraction_smoke_via_python_api(self):
        """Retract a paper-example record mid-session; its matches vanish."""
        from repro.core.config import WorkflowConfig
        from repro.streaming import StreamingResolver

        dataset = load_dataset("paper-example", scale=1.0, seed=0)
        config = WorkflowConfig(
            likelihood_threshold=0.3, vote_mode="per-pair", aggregation="majority"
        )
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        before = resolver.add_batch(list(dataset.store))
        assert ("r1", "r2") in before.matches
        after = resolver.retract("r1")
        assert all("r1" not in key for key in after.matches)
        assert after.delta.retracted_records == 1
        assert after.delta.invalidated_pairs > 0
        # Matches not involving r1 survive untouched.
        assert ("r3", "r4") in after.matches
