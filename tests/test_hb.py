"""Tests for the cross-rank happens-before analyzer (TL3xx).

Covers: p2p queue-order matching (FIFO, wildcards, orphans), the
vector-clock engine's causality answers, each TL3xx rule on a minimal
positive and negative fixture, the adversarial fuzz planters, the
engine routing guarantees (hb rules always see all ranks, column
projection includes the hb extras), shard-count determinism, the
golden-corpus silence contract, graph export and the ``repro deps``
CLI.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._record import replace
from repro.lint import (
    LintConfig,
    lint_trace,
    match_graph_for_trace,
    graph_to_dot,
    graph_to_json_dict,
    hb_rules_enabled,
)
from repro.lint.engine import finalize_report
from repro.lint.hb import (
    HBView,
    MatchGraph,
    MatchGraphWriter,
    MatchRecords,
    match_records_for_trace,
)
from repro.trace import write_jsonl
from repro.trace.builder import TraceBuilder
from repro.trace.definitions import Paradigm
from scenario_oracle import (
    ADVERSARY_KINDS,
    assert_defect_detected,
    build_adversarial_traces,
    generate_adversarial,
)

HB_SELECT = LintConfig(select=("TL3*",))


#: ``repro deps``'s scan: no rule, match records only
DEPS = LintConfig(ignore=("*",))


def scan_file(path, config, shards=None, graph=False):
    """``repro lint``/``deps``'s route: a path-mode session's scan."""
    from repro.core.session import AnalysisSession

    session = AnalysisSession(None, source_path=str(path), shards=shards)
    return session.scan(config, graph=graph)


def codes(report):
    return {d.code for d in report.diagnostics}


def ping_trace(pairs, tag=1, name="ping"):
    """One matched send/recv per (src, dst) pair, time-ordered."""
    tb = TraceBuilder(name=name)
    t = 0.0
    for src, dst in pairs:
        t += 1.0
        tb.process(src).send(t, dst, size=8, tag=tag)
        tb.process(dst).recv(t + 0.5, src, size=8, tag=tag)
    return tb.freeze(check_stacks=False)


def deadlock_trace(perm=(0, 1, 2, 3)):
    """Logical ranks 0/1 deadlock; 2 -> 3 is a healthy ping.

    ``perm`` relabels logical to physical ranks so the permutation
    invariance of the diagnostics can be property-tested.
    """
    tb = TraceBuilder(name="dl")
    a, b, c, d = perm
    # a and b each send tag 1 but wait for tag 2 — classic crossed pair.
    tb.process(a).send(1.0, b, size=4, tag=1)
    tb.process(a).recv(2.0, b, size=4, tag=2)
    tb.process(b).send(1.0, a, size=4, tag=1)
    tb.process(b).recv(2.0, a, size=4, tag=2)
    tb.process(c).send(1.0, d, size=4, tag=1)
    tb.process(d).recv(1.5, c, size=4, tag=1)
    return tb.freeze(check_stacks=False)


def wildcard_trace(relay: bool):
    """Rank 0 wildcard-receives; ranks 1 and 2 send tag 5.

    With ``relay=True`` rank 2's send is causally *after* the wildcard
    receive (rank 0 acks rank 1's message to rank 2 first), so the
    vector-clock engine must prove the match cannot race.  Without the
    relay the two sends are concurrent and TL302 must fire.
    """
    tb = TraceBuilder(name="wc")
    tb.process(1).send(0.5, 0, size=4, tag=5)
    tb.process(0).recv(1.0, -1, size=4, tag=5)  # wildcard
    if relay:
        tb.process(0).send(1.5, 2, size=4, tag=9)
        tb.process(2).recv(2.0, 0, size=4, tag=9)
    tb.process(2).send(2.5, 0, size=4, tag=5)  # never received
    return tb.freeze(check_stacks=False)


def collective_trace(diverge: bool):
    tb = TraceBuilder(name="coll")
    tb.region("MPI_Barrier", paradigm=Paradigm.MPI)
    tb.region("MPI_Allreduce", paradigm=Paradigm.MPI)
    order = {0: ("MPI_Barrier", "MPI_Allreduce"),
             1: ("MPI_Barrier", "MPI_Allreduce"),
             2: ("MPI_Barrier", "MPI_Allreduce")}
    if diverge:
        order[2] = ("MPI_Allreduce", "MPI_Barrier")
    for rank, seq in order.items():
        p = tb.process(rank)
        t = 0.0
        for op in seq:
            p.call(t, t + 0.5, op)
            t += 1.0
    return tb.freeze()


class TestMatching:
    def test_ring_fully_matched(self):
        n = 4
        g = match_graph_for_trace(
            ping_trace([(r, (r + 1) % n) for r in range(n)])
        )
        assert g.complete
        assert g.num_sends == g.num_recvs == g.num_matched == n
        assert np.all(g.s_match >= 0) and np.all(g.r_match >= 0)

    def test_fifo_queue_order(self):
        # Two same-channel messages: k-th send pairs with k-th recv
        # even though the second recv is timestamped first-looking.
        tb = TraceBuilder(name="fifo")
        tb.process(0).send(1.0, 1, size=1, tag=7)
        tb.process(0).send(2.0, 1, size=2, tag=7)
        tb.process(1).recv(3.0, 0, size=1, tag=7)
        tb.process(1).recv(4.0, 0, size=2, tag=7)
        g = match_graph_for_trace(tb.freeze(check_stacks=False))
        assert g.num_matched == 2
        # send i (by time) matched recv i (by stream position)
        order = np.argsort(g.s_time)
        assert list(g.r_pos[g.s_match[order]]) == sorted(
            g.r_pos[g.s_match[order]]
        )

    def test_wildcard_matches_leftover_send(self):
        g = match_graph_for_trace(wildcard_trace(relay=False))
        wild = np.flatnonzero(g.r_wildcard)
        assert len(wild) == 1
        assert g.r_match[wild[0]] >= 0
        assert int(g.s_rank[g.r_match[wild[0]]]) == 1

    def test_orphans_stay_unmatched(self):
        tb = TraceBuilder(name="orphan")
        tb.process(0).send(1.0, 1, size=4, tag=3)
        tb.process(1).recv(2.0, 0, size=4, tag=4)  # wrong tag
        g = match_graph_for_trace(tb.freeze(check_stacks=False))
        assert g.num_matched == 0

    def test_incomplete_graph_on_broken_stream(self):
        tb = TraceBuilder(name="broken")
        tb.region("main")
        tb.process(0).send(1.0, 1, size=4, tag=1)
        tb.process(1).recv(2.0, 0, size=4, tag=1)
        trace = tb.freeze(check_stacks=False)
        ev = trace.events_of(0)
        ev.time.setflags(write=True)
        ev.time[:] = [5.0]  # fine: single event stays sorted
        ev.time.setflags(write=False)
        # Force an unbalanced stream on rank 1 instead: a lone LEAVE.
        tb2 = TraceBuilder(name="broken2")
        tb2.region("main")
        p = tb2.process(0)
        p.enter(0.0, "main")
        p.send(1.0, 1, size=4, tag=1)
        p.leave(2.0, "main")
        p1 = tb2.process(1)
        p1.enter(0.0, "main")
        p1.recv(1.5, 0, size=4, tag=1)
        # main never left on rank 1 -> unbalanced
        trace2 = tb2.freeze(check_stacks=False)
        g = match_graph_for_trace(trace2)
        assert not g.complete
        report = lint_trace(trace2, config=HB_SELECT)
        assert codes(report) == set()  # TL3xx mute on incomplete graphs

    def test_records_shard_independent(self):
        trace = ping_trace([(0, 1), (1, 2), (2, 0)])
        records, _ = match_records_for_trace(trace)
        assert sorted(records) == [0, 1, 2]
        for rank, rec in records.items():
            assert rec.ok and rec.rank == rank


def fifo_reference(g):
    """Plain per-channel FIFO queues, then the wildcard drain.

    Written from the matching rules, sharing no code with
    :meth:`MatchGraph._match`: the k-th recv of a channel takes the
    oldest unmatched send of that channel; each wildcard queue
    ``(dst, tag)`` then takes the leftover sends to it in
    ``(time, src, pos)`` order.
    """
    s_match = [-1] * g.num_sends
    r_match = [-1] * g.num_recvs
    queues: dict = {}
    for i in range(g.num_sends):
        key = (int(g.s_rank[i]), int(g.s_dst[i]), int(g.s_tag[i]))
        queues.setdefault(key, deque()).append(i)
    for j in range(g.num_recvs):
        if g.r_src[j] < 0:
            continue
        queue = queues.get((int(g.r_src[j]), int(g.r_rank[j]), int(g.r_tag[j])))
        if queue:
            i = queue.popleft()
            s_match[i], r_match[j] = j, i
    wild = [j for j in range(g.num_recvs) if g.r_src[j] < 0]
    for dst, tag in sorted({(int(g.r_rank[j]), int(g.r_tag[j])) for j in wild}):
        waiting = [j for j in wild if (g.r_rank[j], g.r_tag[j]) == (dst, tag)]
        leftover = sorted(
            (float(g.s_time[i]), int(g.s_rank[i]), int(g.s_pos[i]), i)
            for i in range(g.num_sends)
            if s_match[i] < 0 and (g.s_dst[i], g.s_tag[i]) == (dst, tag)
        )
        for j, (*_, i) in zip(waiting, leftover):
            s_match[i], r_match[j] = j, i
    return s_match, r_match


#: Partner/tag values whose ranges multiply past int64, forcing the
#: dense-id fallback of the packed channel key.
_WIDE = (-(2**31), 2**31 - 1)


@st.composite
def message_records(draw):
    """Per-rank match records: orphans, wildcards, many and negative
    tags, cross-rank time ties, and optionally int32-extreme values."""
    ranks = draw(st.lists(st.integers(0, 5), min_size=1, max_size=5, unique=True))
    wide = draw(st.booleans())
    partner = st.integers(-1, 6) | (st.sampled_from(_WIDE) if wide else st.nothing())
    tag = st.integers(-3, 3) | (st.sampled_from(_WIDE) if wide else st.nothing())
    op = st.tuples(st.booleans(), partner, tag)
    records = {}
    for rank in ranks:
        ops = draw(st.lists(op, max_size=12))
        sends = [(pos, p, t) for pos, (is_send, p, t) in enumerate(ops) if is_send]
        recvs = [(pos, p, t) for pos, (is_send, p, t) in enumerate(ops) if not is_send]

        def col(rows, i, dtype):
            return np.array([row[i] for row in rows], dtype=dtype)

        records[rank] = replace(
            MatchRecords.empty(rank, len(ops), t_last=float(len(ops))),
            send_dst=col(sends, 1, np.int32),
            send_tag=col(sends, 2, np.int32),
            send_pos=col(sends, 0, np.int64),
            send_time=col(sends, 0, np.float64),
            send_size=np.ones(len(sends), dtype=np.int64),
            send_region=np.full(len(sends), -1, dtype=np.int32),
            recv_src=col(recvs, 1, np.int32),
            recv_tag=col(recvs, 2, np.int32),
            recv_pos=col(recvs, 0, np.int64),
            recv_time=col(recvs, 0, np.float64),
            recv_region=np.full(len(recvs), -1, dtype=np.int32),
            recv_wait=np.zeros(len(recvs), dtype=np.float64),
        )
    return records


class TestMatchGraphConstruction:
    @settings(max_examples=200, deadline=None)
    @given(records=message_records())
    def test_match_equals_fifo_reference(self, records):
        g = MatchGraph.from_records(records)
        s_match, r_match = fifo_reference(g)
        assert g.s_match.tolist() == s_match
        assert g.r_match.tolist() == r_match

    @settings(max_examples=50, deadline=None)
    @given(records=message_records())
    def test_rows_are_rank_major_records(self, records):
        g = MatchGraph.from_records(records)
        ranks = sorted(records)
        assert np.array_equal(
            g.s_rank,
            np.concatenate([np.full(len(records[r].send_dst), r) for r in ranks]),
        )
        for col, field in (("s_dst", "send_dst"), ("s_tag", "send_tag"),
                           ("r_src", "recv_src"), ("r_pos", "recv_pos")):
            want = np.concatenate([getattr(records[r], field) for r in ranks])
            assert np.array_equal(getattr(g, col), want)
        for rank in ranks:
            assert np.array_equal(g.records[rank].send_dst, records[rank].send_dst)
            assert np.array_equal(g.records[rank].recv_src, records[rank].recv_src)

    @settings(max_examples=50, deadline=None)
    @given(records=message_records())
    def test_writer_in_any_rank_order(self, records):
        """The kernel adds ranks as they finish, without sizing first."""
        want = MatchGraph.from_records(records)
        writer = MatchGraphWriter()
        for rank in sorted(records, reverse=True):
            writer.add(records[rank])
        got = writer.finish()
        for col in ("s_rank", "s_dst", "s_tag", "s_pos", "r_rank", "r_src",
                    "r_tag", "r_pos", "r_wildcard", "s_match", "r_match"):
            assert np.array_equal(getattr(got, col), getattr(want, col)), col
        assert graph_to_json_dict(got) == graph_to_json_dict(want)

    @settings(max_examples=50, deadline=None)
    @given(records=message_records(), spare=st.integers(0, 3))
    def test_writer_sized_once_from_a_bound(self, records, spare):
        """The fused kernel reserves a bound (the event count) up front:
        no column is regrown, and ``finish`` keeps the rows used."""
        want = MatchGraph.from_records(records)
        bound = spare + sum(
            len(r.send_dst) + len(r.recv_src) for r in records.values()
        )
        writer = MatchGraphWriter()
        writer.reserve(bound, bound)
        columns = dict(writer._cols)
        for rank in sorted(records):
            writer.add(records[rank])
        assert all(writer._cols[name] is col for name, col in columns.items())
        got = writer.finish()
        for col in ("s_rank", "s_dst", "s_tag", "s_pos", "r_rank", "r_src",
                    "r_tag", "r_pos", "r_wildcard", "s_match", "r_match"):
            assert np.array_equal(getattr(got, col), getattr(want, col)), col
        assert graph_to_json_dict(got) == graph_to_json_dict(want)


class TestVectorClocks:
    def test_send_happens_before_matched_recv(self):
        trace = ping_trace([(0, 1)])
        g = match_graph_for_trace(trace)
        records, shared = match_records_for_trace(trace)
        engine = HBView(shared, g).engine
        s = 0
        r = int(g.s_match[s])
        assert engine.happens_before(engine.vc_send[s], engine.vc_recv[r])
        assert not engine.happens_before(
            engine.vc_recv[r], engine.vc_send[s]
        )

    def test_disjoint_pairs_concurrent(self):
        trace = ping_trace([(0, 1), (2, 3)])
        g = match_graph_for_trace(trace)
        _, shared = match_records_for_trace(trace)
        engine = HBView(shared, g).engine
        a = int(np.flatnonzero(g.s_rank == 0)[0])
        b = int(np.flatnonzero(g.s_rank == 2)[0])
        assert engine.concurrent(engine.vc_send[a], engine.vc_send[b])


class TestRules:
    def test_tl301_deadlock_cycle(self):
        report = lint_trace(deadlock_trace(), config=HB_SELECT)
        assert "TL301" in codes(report)
        [diag] = [d for d in report.diagnostics if d.code == "TL301"]
        assert "rank 0 -> rank 1 -> rank 0" in diag.message

    def test_tl301_silent_on_ring(self):
        report = lint_trace(
            ping_trace([(r, (r + 1) % 4) for r in range(4)]),
            config=HB_SELECT,
        )
        assert "TL301" not in codes(report)

    def test_tl302_concurrent_senders_race(self):
        report = lint_trace(wildcard_trace(relay=False), config=HB_SELECT)
        assert "TL302" in codes(report)

    def test_tl302_causally_ordered_is_silent(self):
        # Same shape, but rank 2's send is provably after the wildcard
        # receive completed — only the vector clocks can tell these
        # two traces apart.
        report = lint_trace(wildcard_trace(relay=True), config=HB_SELECT)
        assert "TL302" not in codes(report)

    def test_tl303_collective_divergence(self):
        report = lint_trace(collective_trace(diverge=True), config=HB_SELECT)
        [diag] = [d for d in report.diagnostics if d.code == "TL303"]
        assert "epoch 0" in diag.message
        assert "MPI_Allreduce" in diag.message

    def test_tl303_silent_on_agreement(self):
        report = lint_trace(collective_trace(diverge=False), config=HB_SELECT)
        assert "TL303" not in codes(report)

    def test_tl304_orphan_channel_aggregated(self):
        tb = TraceBuilder(name="orphans")
        tb.process(0).send(1.0, 1, size=4, tag=3)
        tb.process(0).send(2.0, 1, size=4, tag=3)
        tb.process(1).recv(3.0, 0, size=4, tag=4)
        report = lint_trace(tb.freeze(check_stacks=False), config=HB_SELECT)
        tl304 = [d for d in report.diagnostics if d.code == "TL304"]
        # one finding per channel, not per message
        assert len(tl304) == 2
        assert any("2 send(s)" in d.message for d in tl304)

    def test_tl304_silent_on_matched(self):
        report = lint_trace(ping_trace([(0, 1)]), config=HB_SELECT)
        assert "TL304" not in codes(report)

    def test_rules_registered_with_hb_scope(self):
        from repro.lint import all_rules

        tl3 = [r for r in all_rules() if r.code.startswith("TL3")]
        assert [r.code for r in tl3] == [
            "TL301", "TL302", "TL303", "TL304", "TL305",
        ]
        assert all(r.scope == "hb" and r.category == "hb" for r in tl3)

    @settings(max_examples=20, deadline=None)
    @given(perm=st.permutations(list(range(4))))
    def test_diagnostics_invariant_under_rank_relabeling(self, perm):
        report = lint_trace(deadlock_trace(tuple(perm)), config=HB_SELECT)
        baseline = lint_trace(deadlock_trace(), config=HB_SELECT)
        # Same rules fire the same number of times for any labeling...
        by_code = lambda rep: sorted(  # noqa: E731
            (d.code, d.severity) for d in rep.diagnostics
        )
        assert by_code(report) == by_code(baseline)
        # ...and the cycle follows the relabeled ranks.
        [diag] = [d for d in report.diagnostics if d.code == "TL301"]
        assert diag.rank == min(perm[0], perm[1])


class TestAdversarial:
    @pytest.mark.parametrize("seed", range(len(ADVERSARY_KINDS)))
    def test_each_planted_defect_detected(self, seed):
        assert_defect_detected(generate_adversarial(seed))


class TestEngineRouting:
    def test_hb_rules_run_by_default(self):
        report = lint_trace(ping_trace([(0, 1)]))
        assert {"TL301", "TL305"} <= set(report.rules_run)

    def test_hb_rules_ignorable(self):
        config = LintConfig(ignore=("TL3*",))
        assert not hb_rules_enabled(config)
        report = lint_trace(ping_trace([(0, 1)]), config=config)
        assert not any(c.startswith("TL3") for c in report.rules_run)

    def test_finalize_refuses_partial_records(self):
        trace = ping_trace([(0, 1), (1, 2)])
        records, shared = match_records_for_trace(trace)
        from repro.lint.engine import rank_view, scan_batch

        diags, summaries = [], {}
        for rank in trace.ranks:
            d, s = scan_batch(rank_view(shared, rank, trace.events_of(rank)))
            diags.extend(d)
            summaries.update(s)
        with pytest.raises(ValueError, match="partial trace"):
            finalize_report(shared, diags, summaries, match_records=None)
        del records[1]
        with pytest.raises(ValueError, match=r"ranks \[1\]"):
            finalize_report(
                shared, diags, summaries, match_records=records
            )


class TestDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_shard_matrix_byte_identical(self, tmp_path, shards):
        scenario = generate_adversarial(0)
        _, planted = build_adversarial_traces(scenario)
        path = tmp_path / "planted.jsonl"
        write_jsonl(planted, path)
        sharded = scan_file(path, HB_SELECT, shards=shards)[0]
        baseline = lint_trace(planted, config=HB_SELECT, source=str(path))
        assert sharded.to_json() == baseline.to_json()
        assert "TL301" in codes(sharded)

    def test_deps_graph_matches_in_memory(self, tmp_path):
        trace = ping_trace([(r, (r + 1) % 5) for r in range(5)])
        path = tmp_path / "ring.jsonl"
        write_jsonl(trace, path)
        for shards in (None, 1, 2, 3, 7):
            g = scan_file(path, DEPS, shards=shards, graph=True)[1]
            assert graph_to_json_dict(g) == graph_to_json_dict(
                match_graph_for_trace(trace)
            )


from pathlib import Path  # noqa: E402

GOLDEN_TRACES = sorted((Path(__file__).parent / "golden").glob("*.jsonl"))


class TestGoldenSilence:
    @pytest.mark.parametrize(
        "path", GOLDEN_TRACES, ids=[p.stem for p in GOLDEN_TRACES]
    )
    def test_no_tl3xx_on_golden_corpus(self, path):
        report = scan_file(path, HB_SELECT)[0]
        assert codes(report) == set(), report.to_text()


class TestExport:
    def test_json_schema(self):
        g = match_graph_for_trace(deadlock_trace())
        doc = graph_to_json_dict(g)
        assert doc["tool"] == "repro deps"
        assert doc["complete"] is True
        assert {r["rank"] for r in doc["ranks"]} == {0, 1, 2, 3}
        chan = {
            (c["src"], c["dst"], c["tag"]): c for c in doc["channels"]
        }
        assert chan[(0, 1, 1)]["orphan_sends"] == 1
        assert chan[(1, 0, 2)]["orphan_recvs"] == 1
        assert chan[(2, 3, 1)]["matched"] == 1

    def test_dot_output(self):
        g = match_graph_for_trace(deadlock_trace())
        dot = graph_to_dot(g)
        assert dot.startswith("digraph deps {")
        assert 'color="red"' in dot  # orphan channels highlighted
        assert "r2 -> r3" in dot


class TestCLI:
    def run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_deps_json(self, tmp_path, capsys):
        trace = ping_trace([(0, 1)])
        path = tmp_path / "t.jsonl"
        write_jsonl(trace, path)
        assert self.run("deps", str(path), "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro deps" and doc["complete"]

    def test_deps_dot_to_file(self, tmp_path, capsys):
        trace = ping_trace([(0, 1)])
        path = tmp_path / "t.jsonl"
        write_jsonl(trace, path)
        out = tmp_path / "deps.dot"
        assert self.run("deps", str(path), "-o", str(out)) == 0
        assert out.read_text().startswith("digraph deps {")

    @staticmethod
    def deps_trace():
        """A deadlocked pair, a negative-tag ping, a wildcard receive, an
        orphan receive and one barrier epoch on four ranks."""
        tb = TraceBuilder(name="deps")
        tb.region("main")
        tb.region("MPI_Barrier", paradigm=Paradigm.MPI)
        script = {
            0: [("send", 1.0, 1, 4, 1), ("recv", 2.0, 1, 4, 2),
                ("recv", 3.0, -1, 8, 5)],
            1: [("send", 1.0, 0, 4, 1), ("recv", 2.0, 0, 4, 2)],
            2: [("send", 1.0, 3, 16, -3), ("recv", 2.5, 1, 4, 7)],
            3: [("recv", 1.5, 2, 16, -3), ("send", 2.0, 0, 8, 5)],
        }
        for rank, ops in script.items():
            p = tb.process(rank)
            p.enter(0.0, "main")
            for op, t, partner, size, tag in ops:
                getattr(p, op)(t, partner, size=size, tag=tag)
            p.call(4.0, 4.5, "MPI_Barrier")
            p.leave(5.0)
        return tb.freeze()

    DEPS_DOT = """\
digraph deps {
  rankdir=LR;
  node [shape=box, fontname="monospace"];
  r0 [label="rank 0\\n7 events"];
  r1 [label="rank 1\\n6 events"];
  r2 [label="rank 2\\n6 events"];
  r3 [label="rank 3\\n6 events"];
  r0 -> r1 [label="tag 1: 0/1", color="red"];
  r0 -> r1 [label="tag 2: 0/0", color="red"];
  r1 -> r0 [label="tag 1: 0/1", color="red"];
  r1 -> r0 [label="tag 2: 0/0", color="red"];
  r1 -> r2 [label="tag 7: 0/0", color="red"];
  r2 -> r3 [label="tag -3: 1/1"];
  r3 -> r0 [label="tag 5: 1/1"];
}

"""
    #: sha256 of the ``deps --format json`` bytes
    DEPS_JSON_SHA256 = (
        "ffc97ee549e38dd7fae334bd04d555039048fa6d4aa92028563f4e317c729408"
    )

    def test_deps_output_pinned(self, tmp_path, capsys):
        path = tmp_path / "deps.jsonl"
        write_jsonl(self.deps_trace(), path)
        dot, doc = tmp_path / "deps.dot", tmp_path / "deps.json"
        assert self.run("deps", str(path), "-o", str(dot)) == 0
        assert self.run(
            "deps", str(path), "--format", "json", "--shards", "2",
            "-o", str(doc),
        ) == 0
        assert dot.read_text() == self.DEPS_DOT
        data = json.loads(doc.read_text())
        assert [
            (c["src"], c["dst"], c["tag"], c["sends"], c["matched"],
             c["orphan_recvs"])
            for c in data["channels"]
        ] == [
            (0, 1, 1, 1, 0, 0), (0, 1, 2, 0, 0, 1), (1, 0, 1, 1, 0, 0),
            (1, 0, 2, 0, 0, 1), (1, 2, 7, 0, 0, 1), (2, 3, -3, 1, 1, 0),
            (3, 0, 5, 1, 1, 0),
        ]
        assert data["summary"]["wildcard_recvs"] == 1
        assert hashlib.sha256(doc.read_bytes()).hexdigest() == (
            self.DEPS_JSON_SHA256
        )

    def test_deps_missing_file(self, capsys):
        from repro.cli import main

        assert main(["deps", "/no/such/trace.jsonl"]) == 2
