"""Shared session plumbing for the baseline analyses.

Every baseline consumes a trace plus (optionally) its profile.  With an
:class:`~repro.core.session.AnalysisSession` the profile comes from the
session's memoized stage graph, so running all four baselines after an
``analyze`` replays and re-profiles nothing.
"""

from __future__ import annotations

__all__ = ["resolve_inputs"]


def resolve_inputs(trace, profile, session):
    """Normalise (trace, profile, session) to a concrete (trace, profile).

    Without a ``profile``, it is the ``session``'s, or that of a new
    in-memory session over ``trace``.
    """
    if session is not None:
        if trace is not None and trace is not session.trace:
            raise ValueError("session was created for a different trace")
        trace = session.trace
    if trace is None:
        raise TypeError("pass a trace or an AnalysisSession")
    if profile is None:
        if session is None:
            from ..core.session import AnalysisSession

            session = AnalysisSession(trace)
        profile = session.profile()
    return trace, profile
