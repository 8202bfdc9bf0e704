"""Tests for the command-line interface (in-process invocation)."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _COMMANDS, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_script(script: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter with ``src`` importable."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, stderr=subprocess.PIPE, text=True, timeout=120, **kwargs,
    )


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "syn.rpt"
    code = main(
        [
            "simulate",
            "synthetic",
            "--processes",
            "6",
            "--iterations",
            "8",
            "--seed",
            "5",
            "-o",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_trace(self, trace_path, capsys):
        assert trace_path.exists()

    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "t.jsonl"
        assert main(["simulate", "synthetic", "--processes", "2",
                     "--iterations", "2", "-o", str(out)]) == 0
        assert out.exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "synthetic", "-o", str(tmp_path / "t.xyz")])

    def test_workload_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["simulate", "mystery", "-o", "/tmp/x.rpt"])

    @pytest.mark.parametrize(
        "args",
        [
            ["cosmo_specs", "--processes", "32"],  # not a square grid
            ["cosmo_specs", "--iterations", "0"],
            ["synthetic", "--processes", "0"],
            ["wrf", "--processes", "-4"],
            ["idle_wave", "--processes", "1"],  # a wave needs 3 ranks
        ],
        ids=" ".join,
    )
    def test_bad_size_exit_2(self, args, tmp_path, capsys):
        try:
            code = main(["simulate", *args, "-o", str(tmp_path / "t.rpt")])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.strip().splitlines()[-1]
        ]
        assert not (tmp_path / "t.rpt").exists()

    @pytest.mark.parametrize("workload", ["wrf"])
    def test_case_study_workload_small(self, workload, tmp_path):
        out = tmp_path / "w.rpt"
        assert main(["simulate", workload, "--processes", "4",
                     "--iterations", "3", "-o", str(out)]) == 0


class TestInfoValidateProfile:
    def test_info(self, trace_path, capsys):
        assert main(["info", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "processes: 6" in out
        assert "workload = synthetic" in out

    def test_validate_ok(self, trace_path, capsys):
        assert main(["lint", str(trace_path)]) == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().out

    def test_profile_flat(self, trace_path, capsys):
        assert main(["profile", str(trace_path), "-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "iteration" in out
        assert "USER" in out

    def test_profile_tree(self, trace_path, capsys):
        assert main(["profile", str(trace_path), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "main" in out and "count=" in out


class TestAnalyze:
    def test_basic_report(self, trace_path, capsys):
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Dominant function selection" in out

    def test_ascii_heatmap(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--ascii"]) == 0
        assert "\x1b[48;5;" in capsys.readouterr().out

    def test_json_export(self, trace_path, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert main(["analyze", str(trace_path), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["processes"] == 6

    def test_views_written(self, trace_path, tmp_path, capsys):
        views = tmp_path / "views"
        assert main(
            ["analyze", str(trace_path), "--views", str(views), "--bins", "32"]
        ) == 0
        assert (views / "sos_heatmap.png").exists()
        assert (views / "timeline.png").exists()

    @pytest.mark.parametrize("bins", [0, -3])
    @pytest.mark.parametrize("output", ["text", "--json", "--html", "--views"])
    def test_bins_below_one_rejected(self, output, bins, trace_path,
                                     tmp_path, capsys):
        flags = [] if output == "text" else [output, str(tmp_path / "out")]
        capsys.readouterr()
        assert main(["analyze", str(trace_path), "--bins", str(bins),
                     *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: --bins must be >= 1, got {bins}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_function_pinning(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--function", "work"]) == 0
        assert "'work'" in capsys.readouterr().out

    def test_level(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--level", "1"]) == 0

    def test_preflight_stats_row(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--preflight", "--stats"]) == 0
        rows = {line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.strip()}
        assert "session.preflight" in rows


class TestShardFlags:
    def test_analyze_sharded_matches_unsharded(self, trace_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        assert main(["analyze", str(trace_path)]) == 0
        plain = capsys.readouterr().out
        assert main(["analyze", str(trace_path), "--shards", "3"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == plain

    def test_analyze_memory_bound(self, trace_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        assert main(
            ["analyze", str(trace_path), "--max-memory-mb", "0.2"]
        ) == 0
        assert "Dominant function selection" in capsys.readouterr().out

    def test_compare_sharded(self, trace_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        other = tmp_path / "other.rpt"
        assert main(["simulate", "synthetic", "--processes", "6",
                     "--iterations", "8", "--seed", "6", "-o",
                     str(other)]) == 0
        capsys.readouterr()
        assert main(["compare", str(trace_path), str(other),
                     "--shards", "2"]) == 0
        assert "total SOS" in capsys.readouterr().out

    def test_baselines_sharded(self, trace_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        assert main(["baselines", str(trace_path), "--shards", "2"]) == 0

    def test_bad_shard_values_rejected(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(
            ["analyze", str(trace_path), "--max-memory-mb", "-1"]
        ) == 2
        assert "--max-memory-mb" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e-300"])
    @pytest.mark.parametrize(
        "command", ["analyze", "lint", "deps", "compare", "baselines"]
    )
    def test_unusable_memory_bound_rejected(self, trace_path, capsys,
                                            command, value):
        paths = [str(trace_path)] * (2 if command == "compare" else 1)
        assert main([command, *paths, "--max-memory-mb", value]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: --max-memory-mb must be finite and >= 1 byte, "
            f"got {float(value)}\n"
        )

    def test_missing_file_with_shards(self, tmp_path, capsys):
        assert main(
            ["analyze", str(tmp_path / "nope.rpt"), "--shards", "2"]
        ) == 2
        assert "error" in capsys.readouterr().err.lower()


class TestSelectionErrors:
    """A dominant function the trace cannot supply is bad input: one
    ``error:`` line with the selection's message, exit 2."""

    @pytest.fixture(scope="class")
    def no_candidate(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("nocand") / "one.rpt"
        assert main(["simulate", "synthetic", "--processes", "4",
                     "--iterations", "1", "-o", str(path)]) == 0
        return path

    @pytest.fixture(scope="class")
    def other_dominant(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cosmo") / "c4.rpt"
        assert main(["simulate", "cosmo_specs", "--processes", "4",
                     "--iterations", "8", "-o", str(path)]) == 0
        return path

    @pytest.mark.parametrize("command,case", [
        *((c, case) for case in ("no-candidate", "function")
          for c in ("analyze", "compare", "explain")),
        ("analyze", "level=99"),
        ("analyze", "level=-1"),  # only analyze has --level
        ("compare", "other-dominant"),
        ("explain", "rank=99"),
        ("explain", "rank=-1"),
        ("explain", "segment=999"),
        ("explain", "segment=-1"),
    ])
    def test_exits_2_with_one_line(self, command, case, no_candidate,
                                   other_dominant, trace_path, capsys):
        paths = [trace_path] * (2 if command == "compare" else 1)
        flags = []
        key, _, value = case.partition("=")
        if case == "no-candidate":
            paths = [no_candidate] * len(paths)
            message = (
                "no dominant-function candidate: no function is invoked "
                "at least 8 times (2.0 x 4 processes)"
            )
        elif case == "function":
            flags = ["--function", "nosuch"]
            message = "'nosuch' is not a dominant-function candidate"
        elif case == "other-dominant":
            paths = [trace_path, other_dominant]
            message = (
                "runs segmented by different functions: 'iteration' vs "
                "'timeloop_iteration'; pin one with at_function()"
            )
        elif key == "rank":
            flags = ["--rank", value, "--segment", "0"]
            message = f"trace has no rank {value}"
        elif key == "segment":
            flags = ["--rank", "0", "--segment", value]
            message = f"rank 0 has 8 segments; no index {value}"
        else:
            flags = ["--level", value]
            message = f"refinement level {value} out of range (have 2 candidates)"
        capsys.readouterr()
        assert main([command, *map(str, paths), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_monitor_without_candidate_runs(self, no_candidate, capsys):
        assert main(["monitor", str(no_candidate)]) == 0
        assert "dominant None" in capsys.readouterr().out


class TestRenderConvertBaselines:
    def test_render(self, trace_path, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["render", str(trace_path), "-o", str(out)]) == 0
        assert (out / "timeline.png").exists()

    def test_render_with_messages(self, trace_path, tmp_path):
        out = tmp_path / "rm"
        assert main(["render", str(trace_path), "-o", str(out),
                     "--messages"]) == 0

    def test_convert(self, trace_path, tmp_path, capsys):
        out = tmp_path / "conv.jsonl"
        assert main(["convert", str(trace_path), "-o", str(out)]) == 0
        assert main(["lint", str(out)]) == 0

    def test_baselines(self, trace_path, capsys):
        assert main(["baselines", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "profile-only" in out
        assert "pattern search" in out
        assert "representatives" in out
        assert "phase clustering" in out


class TestValidationFailure:
    def test_invalid_trace_exit_code(self, tmp_path, capsys):
        from repro.trace import write_jsonl
        from repro.trace.builder import TraceBuilder

        tb = TraceBuilder()
        tb.region("main")
        tb.process(0).enter(0.0, "main")
        trace = tb.freeze(check_stacks=False)
        path = tmp_path / "bad.jsonl"
        write_jsonl(trace, path)
        assert main(["lint", str(path)]) == 2
        assert "error[TL002] rank 0" in capsys.readouterr().out


class TestCompareAndHtml:
    def test_compare_command(self, trace_path, tmp_path, capsys):
        other = tmp_path / "other.rpt"
        assert main(["simulate", "synthetic", "--processes", "6",
                     "--iterations", "8", "--seed", "5", "-o", str(other)]) == 0
        assert main(["compare", str(trace_path), str(other)]) == 0
        out = capsys.readouterr().out
        assert "aligned" in out and "speedup" in out

    def test_compare_with_pinned_function(self, trace_path, tmp_path, capsys):
        other = tmp_path / "o2.rpt"
        main(["simulate", "synthetic", "--processes", "6", "--iterations",
              "8", "--seed", "7", "-o", str(other)])
        assert main(["compare", str(trace_path), str(other),
                     "--function", "work"]) == 0

    def test_html_report(self, trace_path, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert main(["analyze", str(trace_path), "--html", str(out),
                     "--bins", "32"]) == 0
        content = out.read_text()
        assert content.startswith("<!DOCTYPE html>")
        assert "data:image/png;base64," in content

    def test_html_stats_rows_cover_rendering(self, trace_path, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert main(["analyze", str(trace_path), "--html", str(out),
                     "--bins", "32", "--stats"]) == 0
        rows = {line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.strip()}
        for layer in ("viz.heatmap", "viz.timeline", "core.activity",
                      "viz.area", "viz.counter", "html.write"):
            assert layer in rows

    def test_simulate_hybrid(self, tmp_path):
        out = tmp_path / "hy.rpt"
        assert main(["simulate", "hybrid_openmp", "--processes", "4",
                     "--iterations", "3", "-o", str(out)]) == 0
        assert main(["lint", str(out)]) == 0

class TestProcess:
    """Behaviour only a fresh interpreter shows: imports, pipes, exit."""

    def test_analyze_imports_only_what_it_runs(self, trace_path):
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['analyze', sys.argv[1]]) == 0\n"
            "unused = ('scipy', 'importlib.metadata', 'xml.sax',\n"
            "          'repro.core.streaming', 'repro.core.shard', 'numpy.ma',\n"
            "          'concurrent.futures',\n"
            "          'uuid', 'logging', 'repro.lint.hb', 'repro.lint.sarif',\n"
            "          'repro.trace.builder', 'repro.trace.merge',\n"
            "          'repro.profiles.export')\n"
            "loaded = [name for name in unused if name in sys.modules]\n"
            "sys.exit(f'imported: {loaded}' if loaded else 0)\n"
        )
        result = run_cli_script(script, str(trace_path), stdout=subprocess.DEVNULL)
        assert result.returncode == 0, result.stderr

    def test_preflight_analyze_imports_only_what_it_runs(self, trace_path, tmp_path):
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['analyze', sys.argv[1], '--preflight',\n"
            "             '--json', sys.argv[2]]) == 0\n"
            "unused = ('numpy.ma', 'repro.core.streaming', 'repro.core.shard',\n"
            "          'repro.trace.builder', 'repro.trace.merge',\n"
            "          'repro.profiles.export')\n"
            "loaded = [name for name in unused if name in sys.modules]\n"
            "sys.exit(f'imported: {loaded}' if loaded else 0)\n"
        )
        result = run_cli_script(
            script, str(trace_path), str(tmp_path / "out.json"),
            stdout=subprocess.DEVNULL,
        )
        assert result.returncode == 0, result.stderr

    def test_html_analyze_imports_no_masked_arrays(self, trace_path, tmp_path):
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['analyze', sys.argv[1], '--html', sys.argv[2]]) == 0\n"
            "unused = ('numpy.ma', 'repro.trace.builder', 'repro.trace.merge',\n"
            "          'repro.profiles.export')\n"
            "loaded = [name for name in unused if name in sys.modules]\n"
            "sys.exit(f'imported: {loaded}' if loaded else 0)\n"
        )
        result = run_cli_script(
            script, str(trace_path), str(tmp_path / "out.html"),
            stdout=subprocess.DEVNULL,
        )
        assert result.returncode == 0, result.stderr

    def test_monitor_imports_only_what_it_runs(self, trace_path):
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['monitor', sys.argv[1]]) == 0\n"
            "unused = ('numpy.ma', 'repro.core.sos', 'repro.profiles',\n"
            "          'scipy', 'repro.core.session', 'repro.trace.builder',\n"
            "          'repro.trace.merge', 'repro.core.imbalance',\n"
            "          'repro.lint')\n"
            "loaded = [name for name in unused if name in sys.modules]\n"
            "sys.exit(f'imported: {loaded}' if loaded else 0)\n"
        )
        result = run_cli_script(script, str(trace_path), stdout=subprocess.DEVNULL)
        assert result.returncode == 0, result.stderr

    def test_warm_cache_analyze_loads_no_lint(self, trace_path, tmp_path, monkeypatch):
        # A full cache hit decodes no event and replays nothing, so it
        # imports neither the decode nor the replay layer, and its record
        # types are built without ``dataclasses`` (repro._record).  The priming
        # run records the stat key however young the file is.
        monkeypatch.setattr("repro.core.session._RACY_NS", 0)
        cache = str(tmp_path / "cache")
        assert main(["analyze", str(trace_path), "--cache-dir", cache]) == 0
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['analyze', sys.argv[1], '--cache-dir', sys.argv[2]]) == 0\n"
            "unused = ('repro.lint', 'repro.trace.validate', 'numpy.ma',\n"
            "          'uuid', 'logging', 'repro.trace.builder',\n"
            "          'repro.trace.merge', 'repro.profiles.export',\n"
            "          'repro.core.engine', 'repro.core.shard',\n"
            "          'concurrent.futures', 'repro.profiles.replay',\n"
            "          'repro.trace.events', 'repro.profiles.callpath',\n"
            "          'repro.trace.writer', 'repro.trace.cursor',\n"
            "          'repro.core.incremental', 'dataclasses')\n"
            "loaded = [name for name in unused if name in sys.modules]\n"
            "sys.exit(f'imported: {loaded}' if loaded else 0)\n"
        )
        result = run_cli_script(
            script, str(trace_path), cache, stdout=subprocess.DEVNULL
        )
        assert result.returncode == 0, result.stderr

    def test_partly_lost_cache_analyze_loads_no_lint(self, trace_path, tmp_path):
        # The validity marker survives but the SOS artifact and one
        # invocation table are gone: the run replays the missing rank
        # without a lint scan, so repro.lint stays unloaded.
        cache = tmp_path / "cache"
        assert main(["analyze", str(trace_path), "--cache-dir", str(cache)]) == 0
        for path in cache.glob("sos-*"):
            path.unlink()
        min(cache.glob("inv-*")).unlink()
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['analyze', sys.argv[1], '--cache-dir', sys.argv[2]]) == 0\n"
            "unused = ('repro.lint', 'repro.trace.validate')\n"
            "loaded = [name for name in unused if name in sys.modules]\n"
            "sys.exit(f'imported: {loaded}' if loaded else 0)\n"
        )
        result = run_cli_script(
            script, str(trace_path), str(cache), stdout=subprocess.DEVNULL
        )
        assert result.returncode == 0, result.stderr

    def test_closed_stdout_exits_quietly(self, trace_path):
        # The reader is gone before the command writes a byte, so every
        # write to stdout (including the flush at exit) hits EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            script = (
                "import sys\n"
                "from repro.cli import main\n"
                "sys.exit(main(['analyze', sys.argv[1]]))\n"
            )
            result = run_cli_script(script, str(trace_path), stdout=write_end)
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == ""

    def test_stats_times_the_cli_import(self, trace_path):
        # Run as ``python -m repro``, --stats opens with the time from
        # the entry module's first line to the start of the command.
        result = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(trace_path), "--stats"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        row = re.search(r"^cli\.import\s+1\s+(\S+)", result.stdout, re.M)
        assert row is not None and float(row.group(1)) > 0

    def test_in_process_stats_has_no_import_row(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--stats"]) == 0
        assert "cli.import" not in capsys.readouterr().out


class TestParser:
    """A run fills in only the subcommand it parses; what it prints is
    what the parser with every subcommand filled in prints."""

    @staticmethod
    def subparsers(parser) -> dict:
        action = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        return action.choices

    @staticmethod
    def printed(parser, argv) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["--no-such-flag"]]
        + [[name, "--help"] for name in _COMMANDS]
        + [[name, "--no-such-flag"] for name in _COMMANDS],
        ids=" ".join,
    )
    def test_prints_what_the_full_parser_prints(self, argv):
        full = build_parser()
        for sub in self.subparsers(full).values():
            sub._filled()
        assert self.printed(build_parser(), argv) == self.printed(full, argv)

    def test_builds_only_the_subcommand_it_runs(self):
        parser = build_parser()
        parser.parse_args(["info", "trace.rpt"])
        built = [
            name for name, sub in self.subparsers(parser).items() if sub._actions[1:]
        ]
        assert built == ["info"]


class TestVersionAndBadInput:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro-trace {repro.__version__}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "{p}"],
            ["lint", "{p}"],
            ["profile", "{p}"],
            ["analyze", "{p}"],
            ["render", "{p}", "-o", "/tmp/out"],
            ["convert", "{p}", "-o", "/tmp/out.jsonl"],
            ["baselines", "{p}"],
            ["explain", "{p}"],
        ],
    )
    def test_missing_input_exit_code(self, argv, tmp_path, capsys):
        missing = tmp_path / "does-not-exist.rpt"
        argv = [a.format(p=missing) for a in argv]
        assert main(argv) == 2
        assert "does-not-exist" in capsys.readouterr().err

    def test_compare_missing_input(self, trace_path, tmp_path, capsys):
        missing = tmp_path / "nope.rpt"
        assert main(["compare", str(trace_path), str(missing)]) == 2
        assert capsys.readouterr().err

    def test_directory_as_input(self, tmp_path, capsys):
        assert main(["info", str(tmp_path)]) == 2

    def test_garbage_bytes_input(self, tmp_path, capsys):
        bad = tmp_path / "garbage.rpt"
        bad.write_bytes(b"\x00\x01 definitely not a trace")
        assert main(["analyze", str(bad)]) == 2


class TestSessionCacheCLI:
    def test_analyze_with_cache_dir(self, trace_path, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["analyze", str(trace_path), "--cache-dir",
                     str(cache)]) == 0
        out = capsys.readouterr().out
        assert "cache:" in out
        assert any(cache.glob("*.npz"))
        # Second run is warm and must still succeed.
        assert main(["analyze", str(trace_path), "--cache-dir",
                     str(cache)]) == 0

    def test_warm_analyze_reads_only_what_it_prints(
        self, trace_path, tmp_path, capsys, monkeypatch
    ):
        from repro.core import session as session_mod

        trace = tmp_path / "t.rpt"
        trace.write_bytes(trace_path.read_bytes())
        warm, cold = tmp_path / "warm", tmp_path / "cold"

        def analyze(cache, *extra):
            assert main(["analyze", str(trace), "--cache-dir", str(cache), *extra]) == 0
            return capsys.readouterr().out

        def split(out):
            head, line, tail = out.partition("\ncache: ")
            count = int(re.match(r"\S+ (\d+) artifacts", tail).group(1))
            return head, count

        rich = ("--json", str(tmp_path / "a.json"), "--html", str(tmp_path / "a.html"))
        # Cold runs: the fused pass computes every product; the file is
        # too new for a stat key.
        monkeypatch.setattr(session_mod, "_RACY_NS", 10**30)
        cold_text = split(analyze(warm))
        cold_rich = split(analyze(cold, *rich))
        cold_files = [(tmp_path / f"a.{ext}").read_bytes() for ext in ("json", "html")]
        assert not list(warm.glob("stat-*"))

        monkeypatch.setattr(session_mod, "_RACY_NS", 0)
        read = []
        load = session_mod.ArtifactCache.load

        def recording_load(self, key):
            read.append(key)
            return load(self, key)

        monkeypatch.setattr(session_mod.ArtifactCache, "load", recording_load)
        out = analyze(warm, "--stats")
        head, count = split(out)
        assert (head, count) == (cold_text[0], cold_text[1] + 1)
        assert len(list(warm.glob("stat-*"))) == 1
        assert read and not [k for k in read if k.startswith("inv-")]
        assert float(re.search(r"cache\.bytes_read\s+(\S+)", out).group(1)) < 500_000

        # Warm --json/--html: the stat key hits, tables load for the
        # timeline, and every byte matches the cold run.
        assert split(analyze(warm, *rich)) == (cold_rich[0], cold_rich[1] + 1)
        assert [
            (tmp_path / f"a.{ext}").read_bytes() for ext in ("json", "html")
        ] == cold_files

    def test_analyze_parallel_zero_rejected(self, trace_path, capsys):
        # The replay thread pool is gone; argparse rejects the flag.
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(trace_path), "--parallel", "0"])
        assert exc.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_render_with_cache_dir(self, trace_path, tmp_path):
        cache = tmp_path / "cache"
        out = tmp_path / "views"
        assert main(["render", str(trace_path), "-o", str(out),
                     "--cache-dir", str(cache)]) == 0
        assert (out / "timeline.png").exists()
        assert any(cache.glob("inv-*.npz"))

    def test_cache_info_and_clear(self, trace_path, tmp_path, capsys):
        cache = tmp_path / "cache"
        main(["analyze", str(trace_path), "--cache-dir", str(cache)])
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        assert "artifacts" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "removed" in capsys.readouterr().out
        assert not any(cache.glob("*.npz"))

    def test_cache_info_missing_dir(self, tmp_path, capsys):
        assert main(["cache", "info", "--cache-dir",
                     str(tmp_path / "never-created")]) == 0
        assert "no cache" in capsys.readouterr().out

    def test_baselines_with_cache(self, trace_path, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["baselines", str(trace_path), "--cache-dir",
                     str(cache)]) == 0
        assert "profile-only" in capsys.readouterr().out


class TestMonitor:
    def test_monitor_command(self, tmp_path, capsys):
        from repro.sim.workloads.synthetic import SyntheticConfig, generate
        from repro.trace import write_binary

        trace = generate(
            SyntheticConfig(ranks=6, iterations=12,
                            outliers={(2, 8): 0.06}, seed=5)
        )
        path = tmp_path / "mon.rpt"
        write_binary(trace, path)
        assert main(["monitor", str(path), "--function", "iteration"]) == 0
        out = capsys.readouterr().out
        assert "ALERT rank 2 segment 8" in out
        assert "streamed" in out

    @pytest.fixture()
    def monitor_trace(self):
        from repro.sim.workloads.synthetic import SyntheticConfig, generate

        return generate(
            SyntheticConfig(ranks=6, iterations=12,
                            outliers={(2, 8): 0.06}, seed=5)
        )

    def _monitor_outputs(self, path, capsys, *args):
        outputs = []
        for chunk in ([], ["--chunk", "256"], ["--chunk-events", "1"],
                      ["--chunk-events", "4096"]):
            assert main(["monitor", str(path), *args, *chunk]) == 0
            outputs.append(capsys.readouterr().out)
        return outputs

    def test_chunk_events_output_invariant(self, monitor_trace, tmp_path,
                                           capsys):
        """Chunking is a transport detail: stdout is the same at the
        default (whole ranks), the old 256 default and one event."""
        from repro.trace import write_binary

        path = tmp_path / "mon.rpt"
        write_binary(monitor_trace, path, version=2, codec="raw")
        outputs = self._monitor_outputs(path, capsys, "--function", "iteration")
        assert all(out == outputs[0] for out in outputs)
        assert "ALERT rank 2 segment 8" in outputs[0]

    def test_chunk_invariant_with_warmup(self, monitor_trace, tmp_path,
                                         capsys):
        from repro.trace import write_binary

        path = tmp_path / "mon.rpt"
        write_binary(monitor_trace, path)
        outputs = self._monitor_outputs(path, capsys)
        assert all(out == outputs[0] for out in outputs)
        assert "dominant 'iteration'" in outputs[0]

    def test_window_flag_bounds_history(self, monitor_trace, tmp_path,
                                        capsys):
        from repro.trace import write_binary

        path = tmp_path / "mon.rpt"
        write_binary(monitor_trace, path)
        assert main(["monitor", str(path), "--function", "iteration",
                     "--window", "4"]) == 0
        out = capsys.readouterr().out
        assert "ALERT rank 2 segment 8" in out  # alerts survive eviction

    def test_follow_tails_live_jsonl(self, monitor_trace, tmp_path, capsys):
        import threading
        import time

        from repro.trace import write_jsonl

        full = tmp_path / "full.jsonl"
        write_jsonl(monitor_trace, full)
        live = tmp_path / "live.jsonl"
        live.write_text("")

        def writer():
            with open(live, "a") as fp:
                for line in full.read_text().splitlines(keepends=True):
                    fp.write(line)
                    fp.flush()
                    time.sleep(0.001)
                fp.write('{"record": "end"}\n')

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert main(["monitor", str(live), "--function", "iteration",
                         "--follow"]) == 0
        finally:
            thread.join()
        out = capsys.readouterr().out
        assert "ALERT rank 2 segment 8" in out
        assert f"streamed {monitor_trace.num_events} events" in out

    def test_follow_rejects_binary(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "mon.rpt"), "--follow"]) == 2
        assert "jsonl" in capsys.readouterr().err

    def test_follow_idle_timeout_ends_without_sentinel(
        self, monitor_trace, tmp_path, capsys
    ):
        # A writer that dies without the end sentinel: the idle timeout
        # must end the follow cleanly with everything streamed so far.
        from repro.trace import write_jsonl

        live = tmp_path / "live.jsonl"
        write_jsonl(monitor_trace, live)  # complete data, no sentinel
        assert main(["monitor", str(live), "--function", "iteration",
                     "--follow", "--idle-timeout", "0.1"]) == 0
        out = capsys.readouterr().out
        assert f"streamed {monitor_trace.num_events} events" in out
        assert "ALERT rank 2 segment 8" in out

    def test_follow_idle_timeout_with_torn_tail_record(
        self, monitor_trace, tmp_path, capsys
    ):
        # Writer killed mid-record: the torn line is ignored, the
        # complete prefix is analyzed.
        from repro.trace import write_jsonl

        full = tmp_path / "full.jsonl"
        write_jsonl(monitor_trace, full)
        text = full.read_text()
        live = tmp_path / "live.jsonl"
        live.write_text(text + text.splitlines()[-1][:37])
        assert main(["monitor", str(live), "--function", "iteration",
                     "--follow", "--idle-timeout", "0.1"]) == 0
        out = capsys.readouterr().out
        assert f"streamed {monitor_trace.num_events} events" in out

    def test_bad_chunk_events(self, trace_path, capsys):
        assert main(["monitor", str(trace_path), "--chunk-events", "0"]) == 2
        assert "chunk-events" in capsys.readouterr().err


@pytest.fixture(scope="module")
def corrupt_traces(tmp_path_factory):
    """Broken copies of a zlib-coded trace and of its JSONL copy, one per
    corruption kind."""
    import struct

    from repro.sim.workloads.synthetic import SyntheticConfig, generate
    from repro.trace import write_binary, write_jsonl
    from repro.trace.binio import payload_start

    base = tmp_path_factory.mktemp("corrupt")
    clean = base / "clean.rpt"
    trace = generate(SyntheticConfig(ranks=4, iterations=6, seed=5))
    write_binary(trace, clean, codec="zlib")
    data = clean.read_bytes()
    version, hlen = struct.unpack_from("<HI", data, 4)
    # One flipped byte in the middle of rank 0's zlib-coded time column,
    # which every command decodes first.
    spec = json.loads(data[10 : 10 + hlen])["locations"][0]["columns"]["time"]
    flip = bytearray(data)
    flip[payload_start(hlen, version) + spec["offset"] + spec["length"] // 2] ^= 0xFF
    # Rename the first region's "name" key in place: same header length.
    at = data.index(b'"name"', data.index(b'"regions"'))
    variants = {
        "truncated": data[:-40],
        "bitflip": bytes(flip),
        "missing-key": data[:at] + b'"nome"' + data[at + 6 :],
    }
    paths = {}
    for name, blob in variants.items():
        paths[name] = base / f"{name}.rpt"
        paths[name].write_bytes(blob)

    write_jsonl(trace, base / "clean.jsonl")
    lines = (base / "clean.jsonl").read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if '"record": "events"' in line)
    record = json.loads(lines[at])

    def with_events(**fields):
        edited = json.dumps({**record, **fields}) + "\n"
        return "".join(lines[:at] + [edited] + lines[at + 1 :])

    jsonl_variants = {
        # A writer killed mid-line: the last events record is cut in half.
        "jsonl-torn": "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2],
        "jsonl-time-str": with_events(
            time=[record["time"][0], "late", *record["time"][2:]]
        ),
        "jsonl-kind-str": with_events(kind="enter"),
    }
    for name, text in jsonl_variants.items():
        paths[name] = base / f"{name}.jsonl"
        paths[name].write_text(text)
    return paths


def _blob_offset(path, location: int, column: str) -> int:
    """File offset of one column blob of a ``.rpt`` file."""
    import struct

    from repro.trace.binio import payload_start

    data = path.read_bytes()
    version, hlen = struct.unpack_from("<HI", data, 4)
    spec = json.loads(data[10 : 10 + hlen])["locations"][location]["columns"]
    return payload_start(hlen, version) + spec[column]["offset"]


class TestCorruptInput:
    """Every trace-reading command gives the same one-line verdict."""

    COMMANDS = (
        ["analyze"],
        ["info"],
        ["profile"],
        ["lint"],
        ["monitor"],
        ["convert", "-o", "{out}"],
    )

    @pytest.mark.parametrize(
        "kind",
        [
            "truncated",
            "bitflip",
            "missing-key",
            "jsonl-torn",
            "jsonl-time-str",
            "jsonl-kind-str",
        ],
    )
    def test_exit_2_without_traceback(
        self, corrupt_traces, kind, tmp_path, capsys
    ):
        path = str(corrupt_traces[kind])
        verdicts = set()
        for command in self.COMMANDS:
            argv = [command[0], path] + [
                a.format(out=tmp_path / "out.rpt") for a in command[1:]
            ]
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "Traceback" not in err
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            verdicts.add(lines[0])
        assert len(verdicts) == 1, verdicts
        if kind == "bitflip":  # the message names the blob's file offset
            (verdict,) = verdicts
            offset = _blob_offset(corrupt_traces[kind], 0, "time")
            assert f"location 0 column time at byte {offset}: " in verdict

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("kind", ["truncated", "bitflip"])
    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["analyze", "--preflight"], ["lint"], ["deps"]],
        ids=" ".join,
    )
    def test_sharded_verdict_matches_unsharded(
        self, corrupt_traces, kind, command, workers, monkeypatch, capsys
    ):
        # In process or across the worker boundary, a decode error in a
        # shard names the file as the unsharded route does.
        monkeypatch.setenv("REPRO_SHARD_WORKERS", workers)
        path = str(corrupt_traces[kind])
        assert main([command[0], path, *command[1:]]) == 2
        plain = capsys.readouterr().err
        assert plain.startswith(f"error: cannot read trace {path}: "), plain
        assert main([command[0], path, *command[1:], "--shards", "3"]) == 2
        assert capsys.readouterr().err == plain

    def test_cached_route_exit_2_without_traceback(
        self, corrupt_traces, tmp_path, monkeypatch, capsys
    ):
        # A primed cache, then one byte flipped inside a column blob:
        # the warm run decodes the file on first use, away from the
        # open, and must still give the cold run's one-line verdict.
        import shutil
        import time

        monkeypatch.setattr("repro.core.session._RACY_NS", 0)
        path, cache = tmp_path / "t.rpt", str(tmp_path / "cache")
        shutil.copyfile(corrupt_traces["bitflip"].parent / "clean.rpt", path)
        assert main(["analyze", str(path), "--cache-dir", cache]) == 0
        time.sleep(0.05)  # past a timestamp tick, so the stat key moves
        path.write_bytes(corrupt_traces["bitflip"].read_bytes())
        capsys.readouterr()
        assert main(["analyze", str(path), "--cache-dir", cache]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.strip() == lines[0]


@pytest.fixture(scope="module")
def cosmo_16x10(tmp_path_factory):
    """A zlib-coded 16x10 COSMO-SPECS trace."""
    from repro.sim.workloads.cosmo_specs import generate
    from repro.trace import write_binary

    path = tmp_path_factory.mktemp("cosmo") / "cosmo.rpt"
    write_binary(generate(processes=16, iterations=10), path, codec="zlib")
    return path


@pytest.fixture(scope="module")
def column_flips(cosmo_16x10, tmp_path_factory):
    """One copy of :func:`cosmo_16x10` per event column, each with one
    byte flipped in the middle of rank 5's blob of that column."""
    from repro.trace.reader import TraceIndex

    base = tmp_path_factory.mktemp("flips")
    clean = cosmo_16x10
    data = clean.read_bytes()
    flips = {}
    for column, (_, length, _, codec) in TraceIndex(clean)._chunks[5].columns.items():
        assert codec == "zlib"
        offset = _blob_offset(clean, 5, column)
        flipped = bytearray(data)
        flipped[offset + length // 2] ^= 0xFF
        flips[column] = (base / f"{column}.rpt", offset)
        flips[column][0].write_bytes(bytes(flipped))
    return flips


class TestCorruptColumnMatrix:
    """A corrupt blob of any column gets one verdict from every route
    that reads the trace: exit 2 and the same ``error:`` line, naming
    the file, the location, the column and the blob's offset."""

    ROUTES = (
        ["analyze"],
        ["analyze", "--json", "{out}.json"],
        ["analyze", "--preflight", "--json", "{out}.json"],
        ["analyze", "--html", "{out}.html"],
        ["analyze", "--shards", "2"],
        ["analyze", "--max-memory-mb", "1"],
        ["info"],
        ["lint"],
        ["deps"],
        ["monitor"],
    )

    @pytest.mark.parametrize(
        "column", ["time", "kind", "ref", "partner", "size", "tag", "value"]
    )
    def test_every_route_exits_2_with_one_verdict(
        self, column_flips, column, tmp_path, capsys
    ):
        path, offset = column_flips[column]
        verdicts = set()
        for route in self.ROUTES:
            argv = [route[0], str(path)] + [
                a.format(out=tmp_path / "out") for a in route[1:]
            ]
            assert main(argv) == 2, argv
            verdicts.add(capsys.readouterr().err)
        (verdict,) = verdicts
        assert verdict.startswith(
            f"error: cannot read trace {path}: "
            f"location 5 column {column} at byte {offset}: "
        ), verdict
        assert len(verdict.strip().splitlines()) == 1, verdict


@pytest.fixture(scope="module")
def truncations(tmp_path_factory):
    """A zlib-coded 4x3 COSMO-SPECS ``.rpt`` and the lengths to cut it
    to: every header boundary, and the first, second and last byte of
    each column blob of its first and last rank."""
    import struct

    from repro.sim.workloads.cosmo_specs import generate
    from repro.trace import write_binary
    from repro.trace.binio import payload_start

    path = tmp_path_factory.mktemp("truncations") / "small.rpt"
    write_binary(generate(processes=4, iterations=3), path, codec="zlib")
    data = path.read_bytes()
    version, hlen = struct.unpack_from("<HI", data, 4)
    start = payload_start(hlen, version)
    cuts = {4, 10, 10 + hlen, start}
    locations = json.loads(data[10 : 10 + hlen])["locations"]
    for location in (locations[0], locations[-1]):
        for spec in location["columns"].values():
            blob = start + spec["offset"]
            cuts |= {blob, blob + 1, blob + spec["length"] - 1}
    return data, sorted(cuts)


class TestTruncationMatrix:
    """A ``.rpt`` cut short anywhere, in its header or inside any column
    blob, gets one verdict from every route that reads it: exit 2 and the
    same ``error:`` line, without a traceback."""

    ROUTES = (
        ["analyze"],
        ["analyze", "--html", "{out}.html"],
        ["lint"],
        ["monitor"],
        ["info"],
        ["deps"],
    )

    def test_every_cut_gets_one_verdict(self, truncations, tmp_path, capsys):
        data, cuts = truncations
        path = tmp_path / "cut.rpt"
        assert len(cuts) > 40
        for cut in cuts:
            path.write_bytes(data[:cut])
            verdicts = set()
            for route in self.ROUTES:
                argv = [route[0], str(path)] + [
                    a.format(out=tmp_path / "out") for a in route[1:]
                ]
                assert main(argv) == 2, (cut, argv)
                err = capsys.readouterr().err
                assert "Traceback" not in err, (cut, argv, err)
                verdicts.add(err)
            (verdict,) = verdicts
            assert verdict.startswith(f"error: cannot read trace {path}: "), (cut, verdict)
            assert len(verdict.strip().splitlines()) == 1, (cut, verdict)


class TestShardInvariance:
    """Sharding is an execution detail: ``analyze`` writes the same
    bytes on every route."""

    @pytest.mark.parametrize(
        "flags", [["--shards", "1"], ["--shards", "3"], ["--max-memory-mb", "1"]],
        ids=" ".join,
    )
    def test_analyze_outputs_identical(self, cosmo_16x10, flags, tmp_path, capsys):
        outputs = []
        for route in ([], flags):
            json_out, html_out = tmp_path / "out.json", tmp_path / "out.html"
            assert main([
                "analyze", str(cosmo_16x10), "--json", str(json_out),
                "--html", str(html_out), *route,
            ]) == 0
            outputs.append(
                (capsys.readouterr().out, json_out.read_bytes(), html_out.read_bytes())
            )
        assert outputs[1] == outputs[0]


class TestCorruptTableArtifact:
    """A corrupt ``inv-`` artifact is a miss on every route: a warm
    drill-down or SOS computation replays that rank, and only it."""

    @staticmethod
    def _corrupt_one(cache: Path) -> None:
        victim = sorted(cache.glob("inv-*.npz"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))

    @pytest.mark.parametrize(
        "shards", [None, 2], ids=["one-shard", "shards-2"]
    )
    def test_warm_run_replays_the_corrupt_rank(
        self, cosmo_16x10, shards, tmp_path, capsys, monkeypatch
    ):
        from repro.core.session import AnalysisSession

        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        cache, html = tmp_path / "cache", tmp_path / "out.html"
        argv = [
            "analyze", str(cosmo_16x10), "--cache-dir", str(cache),
            "--html", str(html),
            *([] if shards is None else ["--shards", str(shards)]),
        ]
        assert main(argv) == 0
        want = html.read_bytes()
        self._corrupt_one(cache)
        assert main(argv) == 0
        assert html.read_bytes() == want
        capsys.readouterr()

        reference = AnalysisSession(None, source_path=cosmo_16x10).analysis()
        self._corrupt_one(cache)
        session = AnalysisSession(
            None, source_path=cosmo_16x10, cache_dir=cache, shards=shards
        )
        refined = session.analysis().refined()
        assert session.stats.total_computed("sos") == 1
        assert session.stats.total_computed("replay") == 1
        assert refined.report() == reference.refined().report()


class TestWarmAnalyze:
    """A warm ``analyze`` prints what the cold one does, and one whose
    file's stat key is recorded decodes no event to do it."""

    @pytest.fixture()
    def primed(self, trace_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("repro.core.session._RACY_NS", 0)
        cache = str(tmp_path / "cache")
        assert main(["analyze", str(trace_path), "--cache-dir", cache]) == 0
        capsys.readouterr()
        return cache

    @staticmethod
    def _no_decode(monkeypatch):
        def read_trace(path, columns=None):
            raise AssertionError(f"warm analyze decoded {path}")

        monkeypatch.setattr("repro.trace.reader.read_trace", read_trace)

    def test_stdout_matches_the_cold_run(
        self, trace_path, primed, monkeypatch, capsys
    ):
        assert main(["analyze", str(trace_path)]) == 0
        cold = capsys.readouterr().out
        self._no_decode(monkeypatch)
        assert main(["analyze", str(trace_path), "--cache-dir", primed]) == 0
        warm = capsys.readouterr().out
        assert warm.startswith(cold)
        assert re.fullmatch(r"\ncache: .*\n", warm[len(cold):])

    def test_json_matches_the_cold_run(
        self, trace_path, primed, tmp_path, monkeypatch, capsys
    ):
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert main(["analyze", str(trace_path), "--json", str(cold)]) == 0
        self._no_decode(monkeypatch)
        assert main([
            "analyze", str(trace_path), "--cache-dir", primed,
            "--json", str(warm),
        ]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        capsys.readouterr()

    def test_html_matches_the_cold_run(self, trace_path, primed, tmp_path, capsys):
        cold, warm = tmp_path / "cold.html", tmp_path / "warm.html"
        assert main(["analyze", str(trace_path), "--html", str(cold)]) == 0
        assert main([
            "analyze", str(trace_path), "--cache-dir", primed,
            "--html", str(warm),
        ]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        capsys.readouterr()


class TestColdAnalyze:
    """A cold ``analyze`` feeds the kernel rank by rank from the file's
    index: it writes what the decode-first route wrote, never calls
    ``read_trace`` (``--html`` and ``--cache-dir`` runs read the
    fingerprint and counters rank by rank too), and a corrupt late
    blob still gets the decode's one-line verdict."""

    RUNS = (
        (),
        ("--json", "{dir}/out.json"),
        ("--preflight", "--json", "{dir}/out.json"),
        ("--html", "{dir}/out.html", "--json", "{dir}/out.json"),
    )

    @staticmethod
    def _run(trace, extra, where, capsys):
        where.mkdir()
        argv = ["analyze", str(trace), *(a.format(dir=where) for a in extra)]
        assert main(argv) == 0
        out = capsys.readouterr().out.replace(str(where), "<dir>")
        return out, {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    @pytest.mark.parametrize("extra", RUNS, ids=" ".join)
    def test_equals_the_decode_first_route(
        self, trace_path, extra, tmp_path, monkeypatch, capsys
    ):
        from repro.core import session as session_mod
        from repro.trace.trace import Trace

        cold = self._run(trace_path, extra, tmp_path / "cold", capsys)
        # The route this replaced: decode the whole file, then scan it.
        monkeypatch.setattr(session_mod._PathTrace, "event_streams", Trace.event_streams)
        assert self._run(trace_path, extra, tmp_path / "decoded", capsys) == cold

    @pytest.mark.parametrize("extra", RUNS, ids=" ".join)
    def test_never_decodes_the_whole_trace(
        self, trace_path, extra, tmp_path, monkeypatch, capsys
    ):
        want = self._run(trace_path, extra, tmp_path / "plain", capsys)

        def read_trace(path, columns=None):
            raise AssertionError(f"cold analyze decoded {path}")

        monkeypatch.setattr("repro.trace.reader.read_trace", read_trace)
        assert self._run(trace_path, extra, tmp_path / "patched", capsys) == want

    def test_corrupt_late_blob_gets_the_decode_verdict(self, tmp_path, capsys):
        import struct

        from repro.sim.workloads.synthetic import SyntheticConfig, generate
        from repro.trace import read_trace, write_binary
        from repro.trace.binio import payload_start
        from repro.trace.reader import TraceFormatError

        path = tmp_path / "late.rpt"
        write_binary(generate(SyntheticConfig(ranks=6, iterations=8, seed=5)), path)
        data = bytearray(path.read_bytes())
        version, hlen = struct.unpack_from("<HI", data, 4)
        spec = json.loads(data[10 : 10 + hlen])["locations"][-1]["columns"]["ref"]
        assert spec.get("codec", "zlib") == "zlib"
        data[payload_start(hlen, version) + spec["offset"] + spec["length"] // 2] ^= 0xFF
        path.write_bytes(data)
        with pytest.raises(TraceFormatError) as decoded:
            read_trace(path)
        want = f"error: cannot read trace {path}: {decoded.value}\n"
        assert re.search(r"location 5 column ref at byte \d+: ", want)
        out = str(tmp_path / "out.json")
        for argv in (
            ["analyze"],
            ["analyze", "--json", out],
            ["analyze", "--preflight", "--json", out],
            ["analyze", "--html", str(tmp_path / "out.html")],
            ["analyze", "--cache-dir", str(tmp_path / "cache")],
            ["info"],
        ):
            assert main([argv[0], str(path), *argv[1:]]) == 2, argv
            assert capsys.readouterr().err == want, argv


def _structural_trace(code: str):
    """Two ranks of ``main { a a a a }``, rank 1 broken by ``code``.

    TL002 leaves rank 1's ``main`` open; TL003 makes rank 1 leave ``b``
    where it should leave the fourth ``a``.  Both decode cleanly.
    """
    from repro.trace import Location, Trace
    from repro.trace.events import EventKind, EventListBuilder

    trace = Trace(name=f"broken-{code}")
    for name in ("main", "a", "b"):
        trace.regions.register(name)
    for rank in (0, 1):
        broken = rank == 1
        b = EventListBuilder()
        b.append(0.0, EventKind.ENTER, ref=0)
        for i in range(4):
            b.append(1.0 + i, EventKind.ENTER, ref=1)
            wrong = broken and code == "TL003" and i == 3
            b.append(1.5 + i, EventKind.LEAVE, ref=2 if wrong else 1)
        if not (broken and code == "TL002"):
            b.append(5.0, EventKind.LEAVE, ref=0)
        trace.add_process(Location(rank, f"P{rank}"), b.freeze())
    return trace


@pytest.fixture(scope="module")
def structural_traces(tmp_path_factory):
    from repro.trace import write_binary

    base = tmp_path_factory.mktemp("structural")
    paths = {}
    for code in ("TL002", "TL003"):
        paths[code] = base / f"{code}.rpt"
        write_binary(_structural_trace(code), paths[code])
    return paths


class TestStructuralInput:
    """A decodable but badly nested trace gets one verdict everywhere:
    exit 2, no traceback, and the lint code and rank of the defect."""

    COMMANDS = (
        ["analyze"],
        ["analyze", "--preflight"],
        ["analyze", "--shards", "2"],
        ["profile"],
        ["explain"],
        ["render", "-o", "{out}"],
        ["baselines"],
        ["compare", "{trace}"],
        ["lint"],
        ["info"],
        ["monitor"],
        ["monitor", "--chunk", "1"],
        ["monitor", "--chunk", "7"],
        ["monitor", "--chunk", "256"],
        ["monitor", "--chunk", "1000000"],  # one whole-rank chunk
    )

    @staticmethod
    def _verdict(text: str) -> set:
        return set(re.findall(r"\[(TL\d{3})\] rank (\d+)", text))

    @pytest.mark.parametrize(
        "command", COMMANDS,
        ids=lambda c: " ".join(a for a in c if "{" not in a),
    )
    @pytest.mark.parametrize("code", ["TL002", "TL003"])
    def test_exit_2_with_lint_code(
        self, structural_traces, code, command, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")  # in-process shards
        path = str(structural_traces[code])
        argv = [command[0], path] + [
            a.format(out=tmp_path / "views", trace=path) for a in command[1:]
        ]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        assert self._verdict(out + err) == {(code, "1")}, out + err

    def test_analysis_error_names_every_finding(
        self, structural_traces, capsys
    ):
        assert main(["analyze", str(structural_traces["TL003"])]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid trace:\nerror[TL003] rank 1 @ ")

    def test_follow_to_end_sentinel_flags_open_frame(self, tmp_path, capsys):
        from repro.trace import write_jsonl

        live = tmp_path / "live.jsonl"
        write_jsonl(_structural_trace("TL002"), live)
        with open(live, "a") as fp:
            fp.write('{"record": "end"}\n')
        assert main(["monitor", str(live), "--follow"]) == 2
        assert self._verdict(capsys.readouterr().err) == {("TL002", "1")}

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["analyze", "--shards", "2"], ["info"], ["lint"],
         ["lint", "--shards", "2"], ["deps"], ["deps", "--shards", "2"],
         ["monitor"], ["monitor", "--follow"]],
        ids=" ".join,
    )
    def test_no_locations_exit_2(self, argv, tmp_path, capsys):
        from repro.trace import Trace, write_binary, write_jsonl

        trace = Trace(name="empty")
        trace.regions.register("main")
        if "--follow" in argv:
            path = tmp_path / "empty.jsonl"
            write_jsonl(trace, path)
            with open(path, "a") as fp:
                fp.write('{"record": "end"}\n')
        else:
            path = tmp_path / "empty.rpt"
            write_binary(trace, path)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        assert "error[TL011] trace: trace has no locations" in err

    def test_follow_idle_timeout_tolerates_open_frame(self, tmp_path, capsys):
        # Without the sentinel the writer may still be inside the frame.
        from repro.trace import write_jsonl

        live = tmp_path / "live.jsonl"
        write_jsonl(_structural_trace("TL002"), live)
        assert main(["monitor", str(live), "--follow",
                     "--idle-timeout", "0.1"]) == 0
        assert "streamed 19 events" in capsys.readouterr().out
