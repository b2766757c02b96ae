"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "atlantis"])

    def test_experiment_ids_optional(self):
        args = build_parser().parse_args(["experiments"])
        assert args.ids == []


class TestWorkloadCommand:
    def test_summary_output(self):
        out = io.StringIO()
        code = main(["workload", "traffic", "--hours", "0.5", "--seed", "3"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "domain:            traffic" in text
        assert "invariants:        ok" in text

    def test_each_domain_runs(self):
        for domain in ("weather", "volcano"):
            out = io.StringIO()
            assert main(["workload", domain, "--hours", "0.5"], out=out) == 0


class TestQueryCommand:
    def test_attribute_query_prints_matches(self):
        out = io.StringIO()
        code = main(["query", "traffic", "city=london", "--hours", "0.5", "--limit", "3"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "data sets match city='london'" in text
        assert "more" in text or text.count("\n") >= 2

    def test_numeric_values_coerced(self):
        out = io.StringIO()
        code = main(["query", "traffic", "reading_count=9999", "--hours", "0.5"], out=out)
        assert code == 0
        assert "0 data sets match" in out.getvalue()

    def test_malformed_predicate_rejected(self):
        assert main(["query", "traffic", "city:london"], out=io.StringIO()) == 2

    def test_each_match_is_summarised_as_lineage_path_summarises_it(self):
        out = io.StringIO()
        assert main(["query", "traffic", "city=london", "--hours", "0.5", "--limit", "2"], out=out) == 0
        matches = out.getvalue().splitlines()[1:3]
        assert len(matches) == 2 and all(", city=london, " in line for line in matches)

    @pytest.mark.parametrize("command", [["query", "reading_count>=100"], ["explain", "owner~london"]])
    def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(self, command):
        """``repro query ... | head -1``: the pipe is closed before the first line is written."""
        source = str(Path(__file__).resolve().parent.parent / "src")
        environment = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "repro", command[0], "traffic", command[1], "--hours", "0.25"]
        process = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=environment)
        process.stdout.close()
        errors = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=60) == 1
        assert errors == ""


class TestQueryAgreesWithExplain:
    """``query`` and ``explain`` read one term grammar, so they count the same rows."""

    @pytest.mark.parametrize(
        "terms",
        [
            ["reading_count>=100"],
            ["reading_count<=116"],
            ["reading_count>117"],
            ["reading_count<117"],
            ["city=london"],
            ["owner~london"],
            ["--window", "0,900"],
        ],
        ids=" ".join,
    )
    def test_query_total_is_explains_actual_rows(self, terms):
        arguments = ["traffic", *terms, "--hours", "0.5"]
        query_out, explain_out = io.StringIO(), io.StringIO()
        assert main(["query", *arguments], out=query_out) == 0
        assert main(["explain", *arguments], out=explain_out) == 0
        total = int(re.match(r"(\d+) data sets match", query_out.getvalue()).group(1))
        actual = int(re.search(r"actual rows: (\d+)", explain_out.getvalue()).group(1))
        assert total == actual > 0

    @pytest.mark.parametrize("command", ["query", "explain"])
    def test_a_term_after_an_option_still_counts(self, command):
        before, after = io.StringIO(), io.StringIO()
        assert main([command, "traffic", "city=london", "--hours", "0.5", "owner~london"], out=before) == 0
        assert main([command, "traffic", "--hours", "0.5", "city=london", "owner~london"], out=after) == 0
        assert re.sub(r"duration: [\d.]+", "", before.getvalue()) == re.sub(r"duration: [\d.]+", "", after.getvalue())

    def test_an_unknown_option_is_still_refused(self):
        with pytest.raises(SystemExit) as exited:
            main(["query", "traffic", "city=london", "--colour", "red"], out=io.StringIO())
        assert exited.value.code == 2


#: every subcommand, as the shortest command line that parses
_EVERY_COMMAND = [
    ["experiments"],
    ["workload", "traffic"],
    ["query", "traffic"],
    ["explain", "traffic"],
    ["watch", "traffic"],
    ["lineage", "ancestors", "traffic"],
    ["lineage", "path", "traffic"],
    ["lineage", "stats", "traffic"],
    ["serve"],
    ["top", "pass://127.0.0.1:7100"],
    ["healthcheck", "pass://127.0.0.1:7100"],
    ["alerts", "pass://127.0.0.1:7100"],
    ["trace", "traffic"],
    ["simulate", "traffic"],
]


class TestSharedFlagGroups:
    """A flag group is declared once and shared; no command may move another's default."""

    @pytest.mark.parametrize(
        "argv",
        [argv for argv in _EVERY_COMMAND if argv[0] not in ("experiments", "top", "healthcheck", "alerts")],
        ids=" ".join,
    )
    def test_each_command_keeps_its_store_default(self, argv):
        expected = "centralized://" if argv[0] == "simulate" else "memory://"
        assert build_parser().parse_args(argv).store == expected

    @pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=" ".join)
    def test_every_command_has_help(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main([*argv[: 2 if argv[0] == "lineage" else 1], "--help"], out=io.StringIO())
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro ")


class TestExplainCommand:
    def test_equality_predicate_explained(self):
        out = io.StringIO()
        code = main(["explain", "traffic", "city=london", "--hours", "0.5"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "estimated rows" in text
        assert "result cache" in text

    def test_window_option_uses_temporal_path(self):
        out = io.StringIO()
        code = main(["explain", "traffic", "--window", "0,900", "--hours", "0.5"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "temporal-overlap" in text
        assert "index used: yes" in text

    def test_near_option_parsed(self):
        out = io.StringIO()
        code = main(
            ["explain", "traffic", "--near", "51.5,-0.12,5", "--hours", "0.5"], out=out
        )
        assert code == 0
        assert "rows scanned" in out.getvalue()

    def test_range_operator_parsed(self):
        out = io.StringIO()
        code = main(["explain", "traffic", "reading_count>=1", "--hours", "0.5"], out=out)
        assert code == 0

    def test_distributed_target_nests_site_plans(self):
        out = io.StringIO()
        code = main(
            ["explain", "traffic", "city=london", "--hours", "0.5", "--store", "centralized://"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "[centralized]" in text
        assert "[warehouse]" in text

    def test_malformed_predicate_rejected(self):
        assert main(["explain", "traffic", "city:london"], out=io.StringIO()) == 2

    def test_malformed_window_rejected(self):
        assert main(["explain", "traffic", "--window", "abc"], out=io.StringIO()) == 2

    def test_reversed_window_rejected_cleanly(self):
        assert main(["explain", "traffic", "--window", "900,0"], out=io.StringIO()) == 2

    def test_malformed_near_rejected(self):
        assert main(["explain", "traffic", "--near", "1,2"], out=io.StringIO()) == 2

    def test_negative_radius_rejected_cleanly(self):
        assert main(["explain", "traffic", "--near", "51.5,-0.12,-5"], out=io.StringIO()) == 2

    def test_leftmost_operator_wins(self):
        from repro.cli import _parse_cli_predicate
        from repro.core.query import AttributeContains, AttributeEquals

        # A value containing an operator character still splits on the
        # leftmost operator, not the highest-priority one.
        assert _parse_cli_predicate("note=x>y") == AttributeEquals("note", "x>y")
        assert _parse_cli_predicate("name~a=b") == AttributeContains("name", "a=b")
        assert _parse_cli_predicate("=value") is None

    @pytest.mark.parametrize("term", [">=1", "<5", "~london", "=london"])
    def test_a_term_without_an_attribute_name_is_refused(self, term):
        assert main(["explain", "traffic", term, "--hours", "0.25"], out=io.StringIO()) == 2


class TestExperimentsCommand:
    def test_single_experiment_to_file(self, tmp_path):
        out = io.StringIO()
        report = tmp_path / "report.txt"
        code = main(["experiments", "E13", "--output", str(report)], out=out)
        assert code == 0
        assert "[E13]" in out.getvalue()
        assert "[E13]" in report.read_text()

    def test_lower_case_ids_accepted(self):
        out = io.StringIO()
        assert main(["experiments", "e14"], out=out) == 0
        assert "[E14]" in out.getvalue()


class TestWatchCommand:
    def test_matches_stream_live(self):
        out = io.StringIO()
        code = main(
            ["watch", "traffic", "city=london", "--hours", "0.5", "--limit", "3"], out=out
        )
        text = out.getvalue()
        assert code == 0
        assert text.count("match ") == 3  # capped by --limit
        assert "city=london" in text
        assert "event(s) matched" in text

    def test_window_aggregation_mode(self):
        out = io.StringIO()
        code = main(
            [
                "watch", "traffic", "city=london",
                "--every", "600", "--aggregate", "count",
                "--hours", "0.5",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "window [" in text
        assert "count=" in text

    def test_distributed_target_reports_notify_traffic(self):
        out = io.StringIO()
        code = main(
            ["watch", "traffic", "city=london", "--hours", "0.5", "--store", "centralized://"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "notify message(s)" in text

    def test_malformed_predicate_rejected(self):
        assert main(["watch", "traffic", "city:london"], out=io.StringIO()) == 2

    def test_window_flags_require_every(self):
        assert main(["watch", "traffic", "--group-by", "city"], out=io.StringIO()) == 2
        # A non-default aggregate without --every must error, not be
        # silently dropped into a plain match tail.
        assert main(["watch", "traffic", "--aggregate", "sum"], out=io.StringIO()) == 2

    def test_bad_aggregation_rejected_cleanly(self):
        # mean without --value-attr is a WindowSpec configuration error.
        assert main(
            ["watch", "traffic", "--every", "600", "--aggregate", "mean"],
            out=io.StringIO(),
        ) == 2


class TestSimulateCommand:
    def test_concurrent_run_reports_percentiles_and_utilization(self):
        out = io.StringIO()
        code = main(
            [
                "simulate", "traffic",
                "--store", "centralized://",
                "--clients", "4",
                "--ops", "12",
                "--hours", "0.5",
                "--service-ms", "0.5",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "clients:            4 concurrent" in text
        assert "p99" in text
        assert "site utilization" in text
        assert "warehouse" in text
        assert "journal:            sha256 " in text

    def test_identical_seeds_print_identical_reports(self):
        def run():
            out = io.StringIO()
            argv = [
                "simulate", "traffic",
                "--store", "dht://?sites=8",
                "--clients", "3",
                "--ops", "9",
                "--hours", "0.5",
                "--jitter", "0.2",
                "--seed", "5",
            ]
            assert main(argv, out=out) == 0
            # Strip the wall-clock events/s figure; everything else is virtual.
            return [
                line for line in out.getvalue().splitlines()
                if not line.startswith("kernel events:")
            ]

        assert run() == run()

    def test_schedule_file_applies_churn(self, tmp_path):
        schedule = tmp_path / "churn.json"
        schedule.write_text(
            '[{"at_ms": 0.5, "action": "churn", "site": "warehouse", "duration_ms": 100}]'
        )
        out = io.StringIO()
        code = main(
            [
                "simulate", "traffic",
                "--store", "centralized://",
                "--clients", "2",
                "--ops", "10",
                "--hours", "0.5",
                "--schedule", str(schedule),
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "schedule:           2 action(s)" in text
        assert "partition warehouse" in text

    def test_local_store_rejected(self):
        assert main(["simulate", "traffic", "--store", "memory://"], out=io.StringIO()) == 2

    def test_missing_schedule_file_rejected(self):
        code = main(
            ["simulate", "traffic", "--schedule", "/nonexistent/churn.json"],
            out=io.StringIO(),
        )
        assert code == 2

    def test_bad_jitter_rejected(self):
        code = main(["simulate", "traffic", "--jitter", "2.0"], out=io.StringIO())
        assert code == 2


class TestLineageCommand:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lineage"])

    def test_ancestors_pages_through_the_closure(self):
        out = io.StringIO()
        code = main(
            ["lineage", "ancestors", "traffic", "--hours", "0.5", "--limit", "3"], out=out
        )
        text = out.getvalue()
        assert code == 0
        assert "ancestor(s) of" in text
        assert "showing 3 from offset 0" in text
        assert text.count("\n  ") == 3  # exactly one line per paged ancestor

    def test_ancestors_works_on_a_model_target(self):
        out = io.StringIO()
        code = main(
            ["lineage", "ancestors", "traffic", "--hours", "0.5", "--store", "dht://"],
            out=out,
        )
        assert code == 0
        assert "ancestor(s) of" in out.getvalue()

    def test_path_prints_a_derivation_chain(self):
        out = io.StringIO()
        code = main(["lineage", "path", "weather", "--hours", "0.5"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "derivation path (" in text
        assert "most derived first" in text

    def test_path_rejects_model_targets(self):
        code = main(
            ["lineage", "path", "traffic", "--store", "centralized://"],
            out=io.StringIO(),
        )
        assert code == 2

    def test_stats_reports_graph_shape_and_index(self):
        out = io.StringIO()
        code = main(
            [
                "lineage",
                "stats",
                "traffic",
                "--hours",
                "0.5",
                "--store",
                "memory://",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "graph nodes/edges:" in text
        assert "closure strategy:  interval" in text
        assert "depth histogram:" in text

    def test_stats_degrades_gracefully_on_model_targets(self):
        out = io.StringIO()
        code = main(["lineage", "stats", "traffic", "--store", "centralized://"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "no per-store graph statistics" in text
        assert "supports_lineage: True" in text

    def test_focus_out_of_range_rejected(self):
        code = main(
            ["lineage", "ancestors", "traffic", "--focus", "999"], out=io.StringIO()
        )
        assert code == 2


class TestCommandsCloseTheirClient:
    """A one-shot command closes what it opened: its file has a checkpoint to adopt."""

    @pytest.mark.parametrize(
        "command",
        [
            ["workload", "traffic"],
            ["query", "traffic", "city=london"],
            ["explain", "traffic", "city=london"],
            ["lineage", "stats", "traffic"],
            ["lineage", "ancestors", "traffic"],
            ["lineage", "path", "weather"],
            ["trace", "traffic", "city=london"],
            ["watch", "traffic", "city=london"],
        ],
        ids=lambda command: "-".join(command[:2]),
    )
    def test_the_file_a_command_wrote_is_adopted_by_the_next_open(self, command, tmp_path):
        from repro.api import connect

        url = f"sqlite:///{tmp_path / 'pass.db'}"
        assert main([*command, "--hours", "0.5", "--store", url], out=io.StringIO()) == 0
        with connect(url) as client:
            report = client.stats()["storage"]["index_restore"]
            assert report["covered"] == client.stats()["records"] > 0
            assert (report["mode"], report["tail"], report["reason"]) == ("adopted", 0, None)


class TestServeCommand:
    def test_parser_accepts_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--store", "memory://", "--token", "t=alpha"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.token == ["t=alpha"]

    def test_malformed_token_rejected_before_binding(self):
        code = main(["serve", "--port", "0", "--token", "no-separator"], out=io.StringIO())
        assert code == 2

    def test_serve_runs_a_real_daemon(self):
        """End to end: the CLI daemon serves a genuine pass:// client."""
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        from repro.api import Q, connect

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        process = subprocess.Popen(
            [_sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert " at pass://" in banner, (banner, process.stderr.read())
            url = banner.split(" at ")[1].split()[0]
            with connect(url) as client:
                assert client.target == "remote+local"
                client.publish(_serve_tuple_set())
                assert client.query(Q.attr("tag") == "cli-serve").total == 1
        finally:
            process.terminate()
            process.wait(timeout=10)
            process.stdout.close()
            process.stderr.close()


def _serve_tuple_set():
    from repro.core import ProvenanceRecord, TupleSet

    return TupleSet([], ProvenanceRecord({"domain": "cli", "tag": "cli-serve"}))
