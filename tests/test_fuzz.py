"""Tests of the scenario generator and the scenario oracle.

* Determinism — a seed must pin the spec and the trace bytes, forever.
* The oracle (``tests/scenario_oracle.py``) — green on generated
  scenarios and the named phenomenon corpus, and *red*, in the right
  cell, when a bug is planted in the program (an oracle that cannot
  catch a planted bug is decoration).  The minimizer then shrinks the
  failing scenario while its failure kind holds.
* The fuzz tier (``pytest -m fuzz``) runs the oracle and the
  adversarial planters over the seed window ``--fuzz-seed`` /
  ``--fuzz-runs`` (tests/conftest.py).
"""

import pytest

import repro.trace.cursor as cursor_mod
from repro._record import replace
from repro.cli import main
from repro.sim.fuzz import (
    COLLECTIVES,
    PATTERNS,
    InjectionSpec,
    ScenarioSpec,
    build_trace,
    generate_spec,
)
from repro.trace.fingerprint import fingerprint_trace
from scenario_oracle import (
    assert_defect_detected,
    assert_scenario_passes,
    assert_trace_passes,
    check_spec,
    children_by_local_row,
    failure_kinds,
    first_child_only,
    generate_adversarial,
    kind_preserving_predicate,
    minimize,
    plant_table_bug,
)


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
        assert check_spec(generate_spec(0)) == []

    def test_corpus_trace_passes(self):
        from repro.sim.workloads import late_sender

        assert_trace_passes(late_sender.generate(ranks=4, iterations=6))

    @pytest.mark.fuzz
    @pytest.mark.parametrize("workload", ["idle_wave", "serialization"])
    def test_corpus_traces_pass(self, workload):
        from repro.sim import workloads

        trace = getattr(workloads, workload).generate(ranks=6, iterations=8)
        assert_trace_passes(trace)

    def test_simulation_crash_is_reported(self):
        bad = ScenarioSpec(
            seed=0, ranks=4, iterations=3,
            injections=(InjectionSpec("straggler", ranks=(0,),
                                      magnitude=-2.0),),
        )
        assert check_spec(bad)[0].cell == "simulate"

    def test_below_the_floor_is_a_baseline_failure(self):
        # One iteration: no function reaches 2p invocations.
        spec = ScenarioSpec(seed=0, ranks=3, iterations=1)
        assert failure_kinds(check_spec(spec)) == {"baseline"}


@pytest.mark.fuzz
class TestFuzzWindow:
    """The seed window of ``--fuzz-seed``/``--fuzz-runs``."""

    def test_scenario(self, fuzz_seed):
        assert_scenario_passes(generate_spec(fuzz_seed))

    def test_adversarial(self, fuzz_seed):
        assert_defect_detected(generate_adversarial(fuzz_seed))


def _buggy_chunk_bounds(real):
    """Planted engine bug: chunked reads silently skip the 2nd chunk."""

    def buggy(n, chunk_events):
        starts = real(n, chunk_events)
        return starts[:1] + starts[2:] if len(starts) > 2 else starts

    return buggy


def _assert_caught_and_minimized(spec, cell):
    """``spec`` fails in ``cell``, the same way on every run, and the
    failure's message carries a scenario minimized to <= 25 %."""
    failures = check_spec(spec)
    assert cell in failure_kinds(failures), failures
    assert check_spec(spec) == failures  # same seed, same verdict

    with pytest.raises(AssertionError) as caught:
        assert_scenario_passes(spec)
    message = str(caught.value)
    assert f"[{cell}" in message
    [json_line] = [ln for ln in message.splitlines() if ln.startswith("spec: ")]
    minimized = ScenarioSpec.from_json(json_line[len("spec: "):])
    assert minimized.size() <= spec.size() * 0.25, (
        f"minimizer only reached {minimized.size()} from {spec.size()}"
    )
    assert cell in failure_kinds(check_spec(minimized))

    # The kind-preserving predicate refuses a reduction that only
    # falls below the 2p dominant-candidate floor.
    floor = replace(minimized, iterations=1, subiters=1)
    assert failure_kinds(check_spec(floor)) == {"baseline"}
    assert not kind_preserving_predicate(failures)(floor)


class TestMutation:
    """The oracle must catch a deliberately planted program bug."""

    def test_planted_bug_caught_and_minimized(self, monkeypatch):
        monkeypatch.setattr(
            cursor_mod, "_chunk_bounds",
            _buggy_chunk_bounds(cursor_mod._chunk_bounds),
        )
        _assert_caught_and_minimized(generate_spec(2), "stream")

    @pytest.mark.parametrize("corrupt", [children_by_local_row, first_child_only])
    def test_planted_table_bug_caught_and_minimized(self, corrupt, monkeypatch):
        # The two exclusive-time bugs of test_reference.py's
        # TestReferenceHasTeeth; the second one the kernel shares with
        # its own one-rank batches, so only the reference sees it.
        plant_table_bug(monkeypatch, corrupt)
        _assert_caught_and_minimized(generate_spec(2), "reference")

    def test_healthy_engine_rejects_minimize(self):
        with pytest.raises(ValueError, match="failing"):
            minimize(generate_spec(0), lambda s: False)


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
