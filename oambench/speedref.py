"""Reference task: the yardstick that the benchmark divides its timings by.

It runs as a process of its own, the way a CLI command does: a cold
interpreter imports numpy and click, then rotates complex amplitudes held in
a dict and renormalises them with numpy, which is the kind of work
``oamcomp`` does per element. It imports nothing from ``oamcomp``, so no
change to the package moves its time; only the speed of the machine does.

    python3 oambench/speedref.py
"""

import math

import click  # noqa: F401  (imported for its start-up cost, as the CLI does)
import numpy as np

ROUNDS = 2500
LEVELS = 16
MODES = 3


def main() -> None:
    amps = {(m, l): complex(math.cos(l + m), math.sin(l * m + 1))
            for m in range(MODES) for l in range(LEVELS)}
    c, s = math.cos(0.3), math.sin(0.3)
    for r in range(ROUNDS):
        mode_a, mode_b = r % MODES, (r + 1) % MODES
        new = {key: amp for key, amp in amps.items() if key[0] not in (mode_a, mode_b)}
        for l in range(LEVELS):
            a, b = amps.get((mode_a, l), 0j), amps.get((mode_b, l), 0j)
            new[(mode_a, l)] = a * c + b * s
            new[(mode_b, l)] = -a * s + b * c
        norm = float(np.linalg.norm(np.fromiter(new.values(), complex, len(new))))
        amps = {key: amp / norm for key, amp in new.items()}
    if not abs(sum(abs(a) ** 2 for a in amps.values()) - 1) < 1e-9:
        raise SystemExit("reference task lost its normalisation")


if __name__ == "__main__":
    main()
