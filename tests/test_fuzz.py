"""Tests of the scenario fuzzer, differential oracle and minimizer.

Three layers:

* Determinism — a seed must pin the spec, the trace bytes, and the
  CLI output, forever.
* The oracle itself — green on healthy engines over both random
  scenarios and the named phenomenon corpus, and *red* when a bug is
  deliberately seeded into an engine (the mutation test: an oracle
  that cannot catch a planted bug is decoration).
* The minimizer — shrinks a failing scenario while preserving the
  failure, and writes a runnable self-contained repro.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.trace.cursor as cursor_mod
from repro.cli import main
from repro.sim.fuzz import (
    COLLECTIVES,
    PATTERNS,
    InjectionSpec,
    ScenarioSpec,
    build_trace,
    fuzz_run,
    generate_spec,
    kind_preserving_predicate,
    minimize,
    run_oracle,
    run_oracle_trace,
    write_repro,
)
from repro.trace.fingerprint import fingerprint_trace

# A small matrix keeps the in-tier-1 oracle runs fast; the full
# default matrix runs under ``-m fuzz`` and in the nightly CI job.
SMALL = dict(shard_counts=(1, 3), chunk_sizes=(7, None), versions=(1, 2))


class TestGenerateSpec:
    def test_deterministic(self):
        for seed in range(20):
            a, b = generate_spec(seed), generate_spec(seed)
            assert a == b
            assert a.to_json() == b.to_json()

    def test_seeds_vary(self):
        specs = {generate_spec(s).to_json() for s in range(30)}
        assert len(specs) > 20

    def test_sampled_fields_valid(self):
        for seed in range(50):
            spec = generate_spec(seed)
            assert 2 <= spec.ranks <= 12
            # >= 3 iterations keeps every USER region above the 2p
            # dominant-candidate invocation floor.
            assert spec.iterations >= 3
            assert spec.pattern in PATTERNS
            assert spec.collective in COLLECTIVES
            assert not (spec.pattern == "none" and spec.collective == "none")
            for inj in spec.injections:
                assert all(r < spec.ranks for r in inj.ranks)

    def test_trace_bytes_reproducible(self):
        spec = generate_spec(3)
        a = fingerprint_trace(build_trace(spec)).hexdigest
        b = fingerprint_trace(build_trace(spec)).hexdigest
        assert a == b

    def test_spec_json_roundtrip(self):
        spec = generate_spec(5)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        with_inj = ScenarioSpec(
            seed=1, ranks=4, iterations=3,
            injections=(InjectionSpec("burst", ranks=(1, 2), magnitude=2.0),),
        )
        assert ScenarioSpec.from_json(with_inj.to_json()) == with_inj

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(seed=0, ranks=1, iterations=3)
        with pytest.raises(ValueError):
            ScenarioSpec(seed=0, ranks=4, iterations=3, pattern="bogus")

    def test_every_pattern_simulates(self):
        for pattern in PATTERNS:
            spec = ScenarioSpec(
                seed=0, ranks=4, iterations=3, pattern=pattern,
                collective="barrier",
            )
            trace = build_trace(spec)
            assert trace.num_processes == 4

    def test_rendezvous_sized_messages_do_not_deadlock(self):
        # 128 KiB payloads exceed the eager threshold; every pattern
        # must stay deadlock-free under rendezvous semantics.
        for pattern in ("halo_ring", "chain", "token_ring", "pairs"):
            spec = ScenarioSpec(
                seed=0, ranks=5, iterations=3, pattern=pattern,
                collective="none", msg_bytes=128 * 1024,
            )
            assert build_trace(spec).num_processes == 5


class TestOracle:
    def test_healthy_engines_pass(self):
        report = run_oracle(generate_spec(0), **SMALL)
        assert report.ok, report.summary()
        assert report.cells > 10
        assert report.fingerprint

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_healthy_engines_pass_full_matrix(self, seed):
        report = run_oracle(generate_spec(seed))
        assert report.ok, report.summary()

    def test_corpus_trace_passes(self):
        from repro.sim.workloads import late_sender

        trace = late_sender.generate(ranks=4, iterations=6)
        report = run_oracle_trace(trace, **SMALL)
        assert report.ok, report.summary()

    @pytest.mark.fuzz
    @pytest.mark.parametrize("workload", ["idle_wave", "serialization"])
    def test_corpus_traces_pass_full_matrix(self, workload):
        from repro.sim import workloads

        trace = getattr(workloads, workload).generate(ranks=6, iterations=8)
        report = run_oracle_trace(trace, **SMALL)
        assert report.ok, report.summary()

    def test_simulation_crash_is_reported(self):
        bad = ScenarioSpec(
            seed=0, ranks=4, iterations=3,
            injections=(InjectionSpec("straggler", ranks=(0,),
                                      magnitude=-2.0),),
        )
        report = run_oracle(bad, **SMALL)
        assert not report.ok
        assert report.failures[0].cell == "simulate"


def _buggy_chunk_bounds(real):
    """Planted engine bug: chunked reads silently skip the 2nd chunk."""

    def buggy(n, chunk_events):
        starts = real(n, chunk_events)
        return starts[:1] + starts[2:] if len(starts) > 2 else starts

    return buggy


class TestMutation:
    """The oracle must catch a deliberately planted engine bug."""

    def test_planted_bug_caught_and_minimized(self, monkeypatch, tmp_path):
        spec = generate_spec(2)
        monkeypatch.setattr(
            cursor_mod, "_chunk_bounds",
            _buggy_chunk_bounds(cursor_mod._chunk_bounds),
        )

        report = run_oracle(spec, **SMALL)
        assert not report.ok, "planted chunking bug was not caught"
        assert any(f.cell.startswith("stream/") for f in report.failures)

        # The kind-preserving predicate refuses reductions that merely
        # fail for a *different* reason (e.g. dropping below the 2p
        # dominant-candidate floor crashes the reference pipeline).
        still_fails = kind_preserving_predicate(report, **SMALL)
        minimized = minimize(spec, still_fails)
        assert still_fails(minimized)
        final_kinds = run_oracle(minimized, **SMALL).failure_kinds()
        assert final_kinds & report.failure_kinds()
        assert "reference" not in final_kinds
        assert minimized.size() <= spec.size() * 0.25, (
            f"minimizer only reached {minimized.size()} from {spec.size()}"
        )

        final = run_oracle(minimized, **SMALL)
        script = write_repro(final, tmp_path)
        assert script.exists()
        data = json.loads(
            (tmp_path / f"repro-seed{spec.seed}.json").read_text()
        )
        assert data["failures"]
        assert (tmp_path / f"repro-seed{spec.seed}.jsonl").exists()

    def test_healthy_engine_rejects_minimize(self):
        with pytest.raises(ValueError, match="failing"):
            minimize(generate_spec(0), lambda s: False)


class TestRepro:
    def test_repro_script_runs_green_on_healthy_engines(self, tmp_path):
        # The repro artifacts are self-contained: with the planted bug
        # absent, re-running the script must exit 0.
        spec = ScenarioSpec(seed=0, ranks=2, iterations=3,
                            pattern="sendrecv_ring", collective="barrier")
        report = run_oracle(spec, **SMALL)
        assert report.ok
        script = write_repro(report, tmp_path)
        src_dir = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=300,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin",
                 "REPRO_SHARD_WORKERS": "1"},
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestFuzzCLI:
    def test_cli_output_byte_reproducible(self, capsys):
        assert main(["fuzz", "--seed", "7", "--runs", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--seed", "7", "--runs", "1"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "1/1 scenarios OK" in first

    def test_cli_rejects_zero_runs(self, capsys):
        assert main(["fuzz", "--runs", "0"]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_fuzz_run_writes_repro_on_failure(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            cursor_mod, "_chunk_bounds",
            _buggy_chunk_bounds(cursor_mod._chunk_bounds),
        )
        lines = []
        reports = fuzz_run(
            seed=2, runs=1, minimize_failures=True,
            corpus_dir=tmp_path, log=lines.append,
        )
        assert len(reports) == 1 and not reports[0].ok
        assert any("minimized" in ln for ln in lines)
        assert list(tmp_path.glob("repro-seed2.*"))


class TestPhenomenonWorkloads:
    """The named corpus exhibits the phenomena it is named after."""

    def test_idle_wave_rejects_bad_config(self):
        from repro.sim.workloads.idle_wave import IdleWaveConfig

        with pytest.raises(ValueError):
            IdleWaveConfig(ranks=2)
        with pytest.raises(ValueError):
            IdleWaveConfig(source_rank=99)

    def test_idle_wave_delays_propagate_beyond_source(self):
        from repro.core import analyze_trace
        from repro.sim.workloads import idle_wave

        trace = idle_wave.generate(ranks=8, iterations=12)
        analysis = analyze_trace(trace)
        source = 4  # defaults to ranks // 2
        # The injected burst must show up on the source rank and, via
        # the ring dependencies alone (there is no collective), induce
        # waiting on at least one other rank.
        sync = {
            r: float(analysis.sos[r].sync_time.sum())
            for r in analysis.sos.ranks
        }
        assert sync[source] >= 0.0
        others = [t for r, t in sync.items() if r != source]
        assert max(others) > 0.0

    def test_late_sender_waiting_grows_down_the_pipeline(self):
        from repro.core import analyze_trace
        from repro.sim.workloads import late_sender

        trace = late_sender.generate(ranks=6, iterations=12)
        analysis = analyze_trace(trace)
        sync = [
            float(analysis.sos[r].sync_time.sum())
            for r in sorted(analysis.sos.ranks)
        ]
        # The head produces, everyone else waits on the slow episodes:
        # downstream ranks wait at least as much as the first consumer.
        assert sync[-1] > 0.0
        assert sync[-1] >= sync[1] * 0.5

    def test_serialization_wait_scales_with_rank(self):
        from repro.core import analyze_trace
        from repro.sim.workloads import serialization

        # Without the closing collective (which re-levels total waits),
        # the only waiting is for the token, so it must grow with the
        # rank index: rank 0 never waits, the tail waits the longest.
        trace = serialization.generate(
            ranks=6, iterations=10, collective="none"
        )
        analysis = analyze_trace(trace)
        sync = [
            float(analysis.sos[r].sync_time.sum())
            for r in sorted(analysis.sos.ranks)
        ]
        assert sync[-1] > sync[0]
        assert sync[-1] > sync[1]

    def test_workloads_registered_in_cli(self, tmp_path, capsys):
        for workload in ("idle_wave", "late_sender", "serialization"):
            out = tmp_path / f"{workload}.jsonl"
            code = main([
                "simulate", workload, "-o", str(out),
                "--processes", "4", "--iterations", "6",
            ])
            assert code == 0 and out.exists()
            capsys.readouterr()

    def test_phenomenon_workloads_reject_seed(self, tmp_path, capsys):
        code = main([
            "simulate", "idle_wave", "-o", str(tmp_path / "x.jsonl"),
            "--seed", "3",
        ])
        assert code == 2
        assert "does not apply" in capsys.readouterr().err
