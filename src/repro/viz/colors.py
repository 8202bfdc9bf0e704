"""Color handling: diverging/sequential colormaps and region palettes.

The paper encodes SOS-times with a cold-to-hot scale: "Blue—cold—colors
indicate short durations, whereas red—hot—colors indicate long
durations" (Section VI).  :data:`COLD_HOT` implements exactly that; the
other maps serve counter charts and profiles.  All mapping is
vectorised: value arrays map to ``(..., 3)`` uint8 RGB arrays.
"""

from __future__ import annotations

import numpy as np

from .._record import record

__all__ = [
    "Colormap",
    "COLD_HOT",
    "HEAT",
    "GRAYS",
    "VIRIDIS_LIKE",
    "region_palette",
    "NAN_COLOR",
    "BACKGROUND",
    "hex_color",
]

#: Canvas background (near-white, so hot colors pop).
BACKGROUND = (252, 252, 250)
#: Cells without data (no segment covering the bin).
NAN_COLOR = (225, 225, 222)


def hex_color(rgb: tuple[int, int, int]) -> str:
    """``(r, g, b)`` → ``#rrggbb`` for the SVG backend."""
    return "#{:02x}{:02x}{:02x}".format(*rgb)


@record(frozen=True)
class Colormap:
    """Piecewise-linear colormap over [0, 1].

    ``stops`` are (position, (r, g, b)) control points with positions
    strictly increasing from 0.0 to 1.0.
    """

    name: str
    stops: tuple[tuple[float, tuple[int, int, int]], ...]

    def __post_init__(self) -> None:
        pos = [p for p, _ in self.stops]
        if len(pos) < 2 or pos[0] != 0.0 or pos[-1] != 1.0:
            raise ValueError("stops must span 0.0 .. 1.0")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("stop positions must be strictly increasing")

    def __call__(
        self, values: np.ndarray, vmin: float = 0.0, vmax: float = 1.0
    ) -> np.ndarray:
        """Map values to RGB; NaNs map to :data:`NAN_COLOR`.

        Returns an array of shape ``values.shape + (3,)``, dtype uint8.
        """
        v = np.asarray(values, dtype=np.float64)
        nan_mask = ~np.isfinite(v)
        span = vmax - vmin
        if span <= 0:
            t = np.zeros_like(v)
        else:
            t = np.clip((v - vmin) / span, 0.0, 1.0)
        t = np.where(nan_mask, 0.0, t)

        positions = np.asarray([p for p, _ in self.stops])
        channels = np.asarray([c for _, c in self.stops], dtype=np.float64)
        idx = np.clip(np.searchsorted(positions, t, side="right") - 1, 0,
                      len(positions) - 2)
        p0 = positions[idx]
        p1 = positions[idx + 1]
        frac = np.where(p1 > p0, (t - p0) / (p1 - p0), 0.0)
        rgb = channels[idx] + frac[..., None] * (channels[idx + 1] - channels[idx])
        out = np.clip(np.round(rgb), 0, 255).astype(np.uint8)
        out[nan_mask] = np.asarray(NAN_COLOR, dtype=np.uint8)
        return out

    def sample(self, n: int = 256) -> np.ndarray:
        """``n`` evenly spaced colors (for colorbars)."""
        return self(np.linspace(0.0, 1.0, n))


#: The paper's SOS scale: blue (cold, short) → red (hot, long).
COLD_HOT = Colormap(
    "cold-hot",
    (
        (0.00, (24, 66, 161)),
        (0.25, (64, 140, 230)),
        (0.50, (235, 235, 235)),
        (0.75, (244, 121, 66)),
        (1.00, (176, 15, 15)),
    ),
)

#: Sequential white→yellow→red map for counter rates.
HEAT = Colormap(
    "heat",
    (
        (0.00, (255, 252, 240)),
        (0.35, (254, 217, 118)),
        (0.70, (240, 101, 48)),
        (1.00, (150, 10, 20)),
    ),
)

GRAYS = Colormap(
    "grays",
    (
        (0.0, (245, 245, 245)),
        (1.0, (40, 40, 40)),
    ),
)

#: Perceptually-ordered dark-to-bright map (rough viridis imitation).
VIRIDIS_LIKE = Colormap(
    "viridis-like",
    (
        (0.00, (68, 1, 84)),
        (0.25, (59, 82, 139)),
        (0.50, (33, 145, 140)),
        (0.75, (94, 201, 98)),
        (1.00, (253, 231, 37)),
    ),
)

#: Distinct, Vampir-flavoured hues for timeline function colors.  MPI is
#: red by strong convention (the paper reads "red areas" as MPI time).
_CATEGORY_COLORS: tuple[tuple[int, int, int], ...] = (
    (86, 156, 87),  # green (application / COSMO in Fig 4)
    (131, 96, 177),  # purple (SPECS in Fig 4)
    (222, 184, 68),  # yellow (coupling in Fig 4)
    (90, 155, 213),  # blue
    (205, 130, 70),  # orange
    (111, 194, 188),  # teal
    (188, 109, 153),  # pink
    (140, 140, 92),  # olive
    (100, 110, 170),  # indigo
    (170, 120, 100),  # brown
)

#: The conventional color for MPI/synchronization regions.
MPI_RED = (196, 52, 43)


def region_palette(num_regions: int, mpi_mask=None) -> np.ndarray:
    """Color table for region ids, shape ``(num_regions, 3)`` uint8.

    ``mpi_mask`` (boolean per region id) pins MPI regions to the
    conventional red; other regions cycle through distinct hues.
    """
    palette = np.empty((max(num_regions, 1), 3), dtype=np.uint8)
    cycle = len(_CATEGORY_COLORS)
    j = 0
    for i in range(num_regions):
        if mpi_mask is not None and bool(mpi_mask[i]):
            palette[i] = MPI_RED
        else:
            palette[i] = _CATEGORY_COLORS[j % cycle]
            j += 1
    return palette
