"""Byte-identity lock for the heat-map, timeline and HTML renderers.

The SHA-256 digests below were recorded with the per-element reference
renderers (one colormap call per segment, one painter pass per
invocation).  Any change to the render path must reproduce them
exactly: same SVG text, same timeline pixels, same activity shares and
the same HTML document.  The HTML embeds zlib-compressed PNGs, so a
zlib build with different deflate output moves only the ``html``
digest.  Regenerate only for an intended visual change:

    PYTHONPATH=src python tests/test_render_identity.py
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import analyze_trace
from repro.core.activity import activity_shares
from repro.htmlreport import render_html_report
from repro.sim.workloads.synthetic import SyntheticConfig, generate
from repro.trace import read_trace
from repro.viz import render_sos_svg, render_timeline_png

GOLDEN_DIR = Path(__file__).parent / "golden"

EXPECTED = {
    "viz_analysis": {
        "svg": "20da2376c73202959a4d719d512f3a123215aeb582ef5fce049b5b1772bf93a7",
        "timeline": "cc367f6954bd83825dc862a82461d4f3e29caf4b592c6fc393a5b9f3e26a3c28",
        "shares": "e08ce920fd7dfc7f6ffa806fd307a687c12c48af47177772b957c98691a03787",
        "html": "bdf154f30afb41a0b575d93415d32ab20b7b0fc362dbb123e35d530c9ed6f9e0",
    },
    "figure3": {
        "svg": "4d4ae5e3690f2ed39984a096127e7a5872bb96bdc80ec34ca82e8b1c2e693736",
        "timeline": "f705c89b40355595c833ea42511445bfb1921f783b1cb8eab4a1fa06c435702b",
        "shares": "5b4a567db4a999c84a5a245965ff8d1a8ac97f24b9956cb068fa7b16c0674bc9",
        "html": "60dce799dccffcd106c955f23593ba50a17c20162aadaf071d012caf8a8b4a1f",
    },
}


def _analyses():
    return {
        # The ``viz_analysis`` fixture of test_viz_charts.py.
        "viz_analysis": lambda: analyze_trace(
            generate(
                SyntheticConfig(
                    ranks=6, iterations=8, slow_ranks={2: 1.7}, seed=4
                )
            )
        ),
        "figure3": lambda: analyze_trace(
            read_trace(GOLDEN_DIR / "figure3.jsonl")
        ),
    }


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digests(analysis) -> dict[str, str]:
    trace = analysis.trace
    tables = analysis.profile.tables
    timeline = render_timeline_png(trace, tables, width=1100)
    shares = activity_shares(trace, tables, bins=256)
    return {
        "svg": _sha(render_sos_svg(analysis, width=1100.0).tostring()),
        "timeline": _sha(np.ascontiguousarray(timeline.pixels).tobytes()),
        "shares": _sha(np.ascontiguousarray(shares.shares).tobytes()),
        "html": _sha(render_html_report(analysis)),
    }


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_render_bytes_unchanged(case):
    assert digests(_analyses()[case]()) == EXPECTED[case]


@pytest.mark.parametrize("codec", ["zlib", "raw"])
def test_path_session_renders_the_decoded_bytes(codec, tmp_path):
    """A session over its own file reads the fingerprint and counter
    series rank by rank; its counter chart and HTML report are the
    bytes a session over the decoded file renders."""
    from repro.core import AnalysisSession
    from repro.trace import write_binary
    from repro.viz.counterchart import render_counter_png

    path = tmp_path / "t.rpt"
    trace = generate(
        SyntheticConfig(ranks=6, iterations=8, slow_ranks={2: 1.7}, seed=4)
    )
    write_binary(trace, path, version=2, codec=codec)
    session = AnalysisSession(None, source_path=path)
    got = session.analysis()
    want = AnalysisSession(read_trace(path)).analysis()
    for metric in trace.metrics:
        assert _sha(render_counter_png(got.trace, metric.id).pixels) == _sha(
            render_counter_png(want.trace, metric.id).pixels
        )
    assert render_html_report(got) == render_html_report(want)
    assert not session.trace.decoded


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import json

    print(json.dumps(
        {name: digests(make()) for name, make in sorted(_analyses().items())},
        indent=4,
    ))
