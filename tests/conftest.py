import numpy as np
import pytest

from fdsw.analysis import find_factor_roots
from fdsw.factors import Branch, Model, factor_i1, factor_i2, factor_i3, factor_i4
from fdsw.hill import _SidebandBlocks
from fdsw.stokes import polish_wave, wave_train

# The oracle probe grid of the acceptance triangle and the pencil tests.
PROBE_KAPPAS = (0.3, 0.5, 0.8, 1.5, 2.0, 3.0)
PROBE_BONDS = (0.0, 0.05, 0.2, 1.0, 5.0)


def probe_points():
    """The probe grid minus points within 0.05 of a factor root or pole.

    Proximity is measured both in kappa (distance to a root at that Bond
    number) and in the factor's own value (resonance detuning): at detunings
    below 0.05 the finite-amplitude probes measure expansion-validity
    physics rather than the asymptotic classification.
    """
    for bond in PROBE_BONDS:
        roots = []
        for which in ("i1", "i2", "i3", "i4"):
            roots += find_factor_roots(Model.FDSW2, which, bond, 0.02, 10.0)
        for kappa in PROBE_KAPPAS:
            if any(abs(kappa - r) < 0.05 for r in roots):
                continue
            detune = min(
                abs(factor_i1(kappa, bond)),
                abs(factor_i2(kappa, bond, Branch.MINUS)),
                abs(factor_i3(kappa, bond, Branch.MINUS)),
                abs(factor_i4(Model.FDSW2, kappa, bond)),
            )
            if detune < 0.05:
                continue
            yield kappa, bond


def hill_matrix(xi, a, kappa, bond, n_modes):
    """The real M(xi) of the Hill oracle and the polished wave it is linearized about.

    M comes from the library's one statement of it, ``hill._SidebandBlocks``.
    """
    wave = polish_wave(wave_train(a, kappa, bond))
    return _SidebandBlocks.build([xi], wave, n_modes).dense()[0], wave


def nearest_reference(xi, a, kappa, bond, n_modes):
    """Growth of the four eigenvalues of L = 1j*M of smallest modulus: the dense quartet."""
    eigenvalues = 1j * np.linalg.eigvals(hill_matrix(xi, a, kappa, bond, n_modes)[0])
    quartet = eigenvalues[np.argsort(np.abs(eigenvalues))[:4]]
    return max(0.0, float(quartet.real.max()))


_verdicts: list[str] = []


@pytest.fixture
def acceptance_report():
    """Record one PASS/FAIL line per acceptance criterion for the summary."""

    def record(name: str, ok: bool, detail: str = "") -> None:
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        _verdicts.append(line)
        print(f"ACCEPTANCE {line}")

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _verdicts:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts:
            terminalreporter.line(line)
