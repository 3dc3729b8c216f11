"""Units and human-readable formatting.

Simulated time throughout the code base is expressed in **seconds** as a
Python float; transfer sizes are in **bytes** as ints.  The constants here
make cost-model code read like the hardware documents it is derived from
(e.g. ``0.55 * US`` for a 550 ns wire latency).
"""

from __future__ import annotations

# ---------------------------------------------------------------- size units
KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

# ---------------------------------------------------------------- time units
# Base unit is the second.
NS: float = 1e-9
US: float = 1e-6
MS: float = 1e-3

_SIZE_SUFFIXES = [
    (GiB, "GiB"),
    (MiB, "MiB"),
    (KiB, "KiB"),
]

def fmt_bytes(n: int) -> str:
    """Format a byte count compactly: ``8`` -> ``"8B"``, ``8192`` -> ``"8KiB"``.

    Exact multiples render without a fraction so benchmark tables line up
    with the power-of-two transfer sizes used in the paper's figures.
    """
    if n < 0:
        raise ValueError(f"negative byte count: {n}")
    for unit, suffix in _SIZE_SUFFIXES:
        if n >= unit:
            if n % unit == 0:
                return f"{n // unit}{suffix}"
            return f"{n / unit:.2f}{suffix}"
    return f"{n}B"
