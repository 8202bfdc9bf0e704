"""Built-in happens-before rules: cross-rank causality (TL3xx).

These rules consume the global :class:`~repro.lint.hb.MatchGraph`
(scope ``"hb"``) instead of a single rank's view or the summary
merge — they answer the questions the per-rank and summary rules
structurally cannot: is there a deadlock *cycle*?  Which sends race
for a wildcard receive?  Which rank *originated* this wait chain?

Every rule mutes itself when the graph is incomplete (some rank's
stream was unsorted or unbalanced): the structural TL0xx rules already
flag those streams, and match-based findings derived from a broken
stream would be phantoms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

from .model import Severity
from .registry import Finding, register_rule

if TYPE_CHECKING:
    from .hb import HBView

__all__: list[str] = []


def _strongly_connected(adj: dict[int, set[int]]) -> list[list[int]]:
    """Tarjan SCC (iterative) over a small adjacency dict; components
    with at least one cycle, each sorted, in sorted order."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]

    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(sorted(adj.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adj.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1 or node in adj.get(node, ()):
                    sccs.append(sorted(comp))
    sccs.sort()
    return sccs


@register_rule(
    "TL301",
    category="hb",
    scope="hb",
    severity=Severity.ERROR,
)
def potential_deadlock_cycle(hbview: HBView) -> Iterator[Finding]:
    """Ranks wait on each other in a cycle — a potential deadlock.

    Every receive that no send ever satisfies makes its rank wait on
    the expected source; a cycle in that wait-for graph (A waits on B
    waits on A) is the classic send/recv ordering deadlock.  The trace
    only exists because the run terminated, so in practice this flags
    eager-buffering luck or a truncated hang.
    """
    g = hbview.graph
    if not g.complete:
        return
    unmatched = np.flatnonzero((g.r_match < 0) & ~g.r_wildcard)
    if not len(unmatched):
        return
    adj: dict[int, set[int]] = {}
    anchor: dict[int, int] = {}  # rank -> first unmatched recv row
    for i in unmatched.tolist():
        dst = int(g.r_rank[i])
        src = int(g.r_src[i])
        if src not in g.records or not g.records[src].n_events:
            continue  # unknown/empty source: TL009/TL304 territory
        adj.setdefault(dst, set()).add(src)
        if dst not in anchor or g.r_pos[i] < g.r_pos[anchor[dst]]:
            anchor[dst] = i
    for cycle in _strongly_connected(adj):
        first = anchor.get(cycle[0], -1)
        chain = " -> ".join(f"rank {r}" for r in cycle + [cycle[0]])
        yield Finding(
            f"unsatisfied receives form a wait-for cycle: {chain} "
            f"(each rank expects a message its partner never sends)",
            rank=cycle[0],
            position=int(g.r_pos[first]) if first >= 0 else -1,
            time=float(g.r_time[first]) if first >= 0 else None,
        )


@register_rule(
    "TL302",
    category="hb",
    scope="hb",
    severity=Severity.WARNING,
)
def wildcard_receive_race(hbview: HBView) -> Iterator[Finding]:
    """Wildcard receive has concurrent candidate senders — match races.

    An ``MPI_ANY_SOURCE`` receive whose queue holds sends from two or
    more source ranks that are *concurrent* under happens-before (no
    causal order between them and the receive) can match either one
    depending on arrival timing: the recorded matching is one of
    several legal executions, and replays may diverge.
    """
    g = hbview.graph
    if not g.complete:
        return
    wild = np.flatnonzero(g.r_wildcard)
    if not len(wild):
        return
    engine = hbview.engine  # lazily built: only wildcard traces pay
    for w in wild.tolist():
        dst = int(g.r_rank[w])
        tag = int(g.r_tag[w])
        own = int(g.r_match[w])
        # Sends this receive could have drained instead: its own match,
        # sends left unmatched, and sends other *wildcards* of the same
        # queue drained.  Specifically-matched sends are excluded — a
        # named-source receive claims them in any execution.
        cand = np.flatnonzero((g.s_dst == dst) & (g.s_tag == tag))
        cand = cand[
            (g.s_match[cand] < 0)
            | (cand == own)
            | g.r_wildcard[np.clip(g.s_match[cand], 0, max(g.num_recvs - 1, 0))]
        ]
        vc_w = engine.vc_recv[w]
        sources: set[int] = set()
        for s in cand.tolist():
            if engine.happens_before(vc_w, engine.vc_send[s]):
                continue  # causally after the receive: not a candidate
            sources.add(int(g.s_rank[s]))
        if len(sources) >= 2:
            matched_src = int(g.s_rank[own]) if own >= 0 else -1
            who = ", ".join(str(r) for r in sorted(sources))
            got = (
                f"matched rank {matched_src}"
                if matched_src >= 0
                else "went unmatched"
            )
            yield Finding(
                f"wildcard receive (tag {tag}) {got} but ranks {{{who}}} "
                f"have concurrent sends in flight — the match is "
                f"timing-dependent",
                rank=dst,
                position=int(g.r_pos[w]),
                time=float(g.r_time[w]),
            )


@register_rule(
    "TL303",
    category="hb",
    scope="hb",
    severity=Severity.WARNING,
)
def collective_order_mismatch(hbview: HBView) -> Iterator[Finding]:
    """Ranks disagree on the collective call sequence.

    Collectives must be invoked in the same order by every rank of the
    communicator.  The first epoch where the per-rank sequences name
    different operations — or where some rank has stopped calling
    collectives while others continue — is where a real run blocks.
    Unlike the per-count TL102 check this is order-sensitive and names
    the exact epoch.
    """
    g = hbview.graph
    if not g.complete:
        return
    seqs = g.collective_sequences()
    if len(seqs) < 2:
        return
    # The first epoch where some rank leaves the first rank's sequence
    # (a different operation, or one side has stopped calling); later
    # epochs are skewed by the first divergence.
    lead = next(iter(seqs.values()))
    lens = np.asarray([len(seq) for seq in seqs.values()])
    flat = np.concatenate(list(seqs.values()))
    # Each call's epoch, and whether it leaves the lead sequence there.
    epochs = np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)
    differ = epochs >= len(lead)
    inside = ~differ
    differ[inside] = flat[inside] != lead[epochs[inside]]
    candidates = np.concatenate([epochs[differ], lens[lens < len(lead)]])
    if not len(candidates):
        return
    epoch = int(candidates.min())
    by_op: dict[int, list[int]] = {}
    absent: list[int] = []
    for rank, seq in seqs.items():
        if epoch < len(seq):
            by_op.setdefault(int(seq[epoch]), []).append(rank)
        else:
            absent.append(rank)
    parts = [
        f"ranks {_rank_set(ranks)} call "
        f"{hbview.region_name(ref)!r}"
        for ref, ranks in sorted(by_op.items())
    ]
    if absent:
        parts.append(f"ranks {_rank_set(absent)} call nothing")
    some_rank = min(r for ranks in by_op.values() for r in ranks)
    rec = g.records[some_rank]
    yield Finding(
        f"collective sequences diverge at epoch {epoch}: "
        + "; ".join(parts),
        rank=some_rank,
        position=int(rec.coll_pos[epoch]),
        time=float(rec.coll_enter[epoch]),
    )


def _rank_set(ranks: list[int]) -> str:
    return "{" + ", ".join(str(r) for r in sorted(ranks)) + "}"


@register_rule(
    "TL304",
    category="hb",
    scope="hb",
    severity=Severity.WARNING,
)
def orphan_messages(hbview: HBView) -> Iterator[Finding]:
    """Sends or receives never matched by the other side.

    After FIFO queue matching, a leftover send means the message was
    recorded leaving but never arriving (dropped events, tag mismatch,
    truncated stream); a leftover receive expects a message nobody
    sent.  Reported aggregated per (src, dst, tag) channel.
    """
    from .hb import _group_ids, sorted_unique

    g = hbview.graph
    if not g.complete:
        return
    orphan_s = np.flatnonzero(g.s_match < 0)
    if len(orphan_s):
        chan = _group_ids(
            g.s_rank[orphan_s], g.s_dst[orphan_s], g.s_tag[orphan_s]
        )
        for gid in sorted_unique(chan).tolist():
            sel = orphan_s[np.flatnonzero(chan == gid)]
            first = int(sel[np.argmin(g.s_pos[sel])])
            src, dst = int(g.s_rank[first]), int(g.s_dst[first])
            tag = int(g.s_tag[first])
            yield Finding(
                f"{len(sel)} send(s) rank {src} -> rank {dst} (tag {tag}) "
                f"never matched by a receive",
                rank=src,
                position=int(g.s_pos[first]),
                time=float(g.s_time[first]),
            )
    orphan_r = np.flatnonzero((g.r_match < 0) & ~g.r_wildcard)
    if len(orphan_r):
        chan = _group_ids(
            g.r_src[orphan_r], g.r_rank[orphan_r], g.r_tag[orphan_r]
        )
        for gid in sorted_unique(chan).tolist():
            sel = orphan_r[np.flatnonzero(chan == gid)]
            first = int(sel[np.argmin(g.r_pos[sel])])
            src, dst = int(g.r_src[first]), int(g.r_rank[first])
            tag = int(g.r_tag[first])
            yield Finding(
                f"{len(sel)} receive(s) at rank {dst} from rank {src} "
                f"(tag {tag}) never satisfied by a send",
                rank=dst,
                position=int(g.r_pos[first]),
                time=float(g.r_time[first]),
            )
    orphan_w = np.flatnonzero((g.r_match < 0) & g.r_wildcard)
    if len(orphan_w):
        for dst in sorted_unique(g.r_rank[orphan_w]).tolist():
            sel = orphan_w[g.r_rank[orphan_w] == dst]
            first = int(sel[np.argmin(g.r_pos[sel])])
            yield Finding(
                f"{len(sel)} wildcard receive(s) at rank {int(dst)} "
                f"never satisfied by a send",
                rank=int(dst),
                position=int(g.r_pos[first]),
                time=float(g.r_time[first]),
            )


@register_rule(
    "TL305",
    category="hb",
    scope="hb",
    severity=Severity.INFO,
)
def wait_chain_origin(hbview: HBView) -> Iterator[Finding]:
    """Wait chain propagates across ranks; names the originating rank.

    A receive that blocks for a significant share of the run delays
    its rank's *next* sends, whose receivers block in turn — the
    paper's idle-wave / late-sender propagation.  This rule links
    significantly-waited receives into chains through the match graph
    and attributes each chain to the rank (and enclosing region) of
    the send at its root: the place to look for the bottleneck, not
    the places that merely inherited the wait.
    """
    from .hb import sorted_unique

    g = hbview.graph
    if not g.complete:
        return
    cfg = hbview.shared.config
    duration = g.duration
    if duration <= 0.0:
        return
    sig = np.flatnonzero(
        (g.r_match >= 0) & (g.r_wait >= cfg.hb_wait_fraction * duration)
    )
    if not len(sig):
        return
    # Per rank, the significant recv rows sorted by stream position —
    # the parent of a chain link is the latest significant receive on
    # the sender's rank that completed before the send was posted.
    by_rank: dict[int, np.ndarray] = {}
    pos_by_rank: dict[int, np.ndarray] = {}
    for rank in sorted_unique(g.r_rank[sig]).tolist():
        rows = sig[g.r_rank[sig] == rank]
        order = np.argsort(g.r_pos[rows], kind="stable")
        by_rank[int(rank)] = rows[order]
        pos_by_rank[int(rank)] = g.r_pos[rows[order]]
    parent = np.full(len(sig), -1, dtype=np.int64)  # index into sig
    row_to_sig = {int(row): i for i, row in enumerate(sig.tolist())}
    for i, row in enumerate(sig.tolist()):
        s = int(g.r_match[row])
        src = int(g.s_rank[s])
        cand_pos = pos_by_rank.get(src)
        if cand_pos is None:
            continue
        k = int(np.searchsorted(cand_pos, int(g.s_pos[s]), side="left")) - 1
        if k >= 0:
            parent[i] = row_to_sig[int(by_rank[src][k])]
    # Accumulate each root's chain (a forest: every node has <= 1 parent).
    children: dict[int, list[int]] = {}
    roots = []
    for i in range(len(sig)):
        if parent[i] < 0:
            roots.append(i)
        else:
            children.setdefault(int(parent[i]), []).append(i)
    for root in roots:
        members = [root]
        stack = [root]
        while stack:
            node = stack.pop()
            for child in children.get(node, ()):
                members.append(child)
                stack.append(child)
        rows = sig[members]
        ranks_involved = set(g.r_rank[rows].tolist())
        s_root = int(g.r_match[sig[root]])
        origin = int(g.s_rank[s_root])
        ranks_involved.add(origin)
        total_wait = float(g.r_wait[rows].sum())
        if (
            len(ranks_involved) < cfg.hb_chain_min_ranks
            or total_wait < cfg.hb_chain_wait_ratio * duration
        ):
            continue
        region = hbview.region_name(int(g.s_region[s_root]))
        if int(g.s_region[s_root]) < 0:
            region = "<toplevel>"
        yield Finding(
            f"wait chain across {len(ranks_involved)} ranks "
            f"({total_wait:.6g}s total blocked time, "
            f"{100 * total_wait / duration:.0f}% of the run) originates "
            f"at rank {origin} in {region!r}",
            rank=int(g.r_rank[sig[root]]),
            position=int(g.r_pos[sig[root]]),
            time=float(g.r_time[sig[root]]),
        )
