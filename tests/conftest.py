import contextlib
import io
import sys
from typing import NamedTuple

import numpy as np
import pytest

from oamcomp.cli import main
from oamcomp.state import PhotonState, from_amplitudes


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_state(rng, n: int, mode: int = 0) -> PhotonState:
    """Normalized random superposition over the computational range of one mode."""
    d = 1 << n
    coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
    coeffs /= np.linalg.norm(coeffs)
    return from_amplitudes(mode, coeffs, n)


def coefficients(state: PhotonState, mode: int = 0) -> list[complex]:
    """Computational-range coefficients ``[amp(mode, 0) .. amp(mode, 2^n - 1)]``."""
    return [state.amplitude(mode, l) for l in range(state.dim)]


class Draws:
    """A stand-in for ``numpy.random.Generator`` whose uniform draws are
    ``draws``, in order."""

    def __init__(self, *draws: float):
        self._draws = iter(draws)

    def random(self) -> float:
        return next(self._draws)


def states_close(a: PhotonState, b: PhotonState, tol: float = 1e-12) -> bool:
    """Amplitude-map equality up to ``tol`` per entry."""
    keys = set(a.amplitudes) | set(b.amplitudes)
    return all(abs(a.amplitude(*k) - b.amplitude(*k)) <= tol for k in keys)


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exc_info: tuple | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke_cli(args, catch_exceptions: bool = True) -> CliResult:
    """Run ``oamc args`` in this process through ``cli.main``, with stdout and
    stderr captured.  The exit code is that of ``SystemExit``, 0 when ``main``
    returns, and 1 for any other exception, which is kept in ``exc_info`` (or
    re-raised, if ``catch_exceptions`` is false)."""
    out, err = io.StringIO(), io.StringIO()
    exc_info = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            if not catch_exceptions:
                raise
            code, exc_info = 1, sys.exc_info()
    return CliResult(code, out.getvalue(), err.getvalue(), exc_info)


def unitary_to_json(matrix) -> dict:
    """The unitary JSON of a ``d x d`` matrix, as ``oamc compile`` reads it."""
    matrix = np.asarray(matrix, dtype=complex)
    return {
        "d": matrix.shape[0],
        "rows": [[[z.real, z.imag] for z in row] for row in matrix],
    }
