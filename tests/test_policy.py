"""The one check path: ``NumericPolicy.check``, ``cap`` and ``floor``, and
every bound that raises through them."""
import dataclasses
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import critsense.channels as channels
import critsense.deformed as deformed
import critsense.metrology as metrology
import critsense.models as models
import critsense.subsys as subsys
import critsense.symmetry as symmetry
from critsense.deformed import DeformationSpec, OutcomeEnsemble
from critsense.policy import POLICY, CapacityError, NumericPolicy
from critsense.qcore import MixedState, PauliOperator, PureState, SectorBlock, dephase_normalize

from conftest import sum_z

SRC = Path(__file__).resolve().parents[1] / "src" / "critsense"


def test_every_field_is_read_by_the_library():
    """A field no module reads, as ``POLICY.<field>`` or as the name a
    check method takes, has gone dead."""
    source = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "policy.py")
    dead = [f.name for f in dataclasses.fields(NumericPolicy)
            if not re.search(rf'POLICY\.{f.name}\b|"{f.name}"', source)]
    assert dead == []


# -- the methods -------------------------------------------------------------

def test_check_passes_at_the_tolerance_and_names_the_miss():
    policy = NumericPolicy(herm_tol=1e-10)
    policy.check("deviation", 1e-10, "herm_tol")
    policy.check("deviation", 3e-10, "herm_tol", scale=3.0)
    with pytest.raises(ValueError) as info:
        policy.check("deviation", 4e-10, "herm_tol", scale=3.0, scaled_by="|v|")
    assert str(info.value) == ("deviation 4.000e-10 exceeds its tolerance 3.000e-10 "
                               "(herm_tol 1e-10 x |v|) by 1.000e-10")
    with pytest.raises(ArithmeticError, match=r"^deviation nan exceeds .*\(herm_tol 1e-10\) by nan$"):
        policy.check("deviation", math.nan, "herm_tol", error=ArithmeticError)
    with pytest.raises(AttributeError):
        policy.check("deviation", 0.0, "no_such_tol")


def test_cap_and_floor_name_the_field_and_the_excess():
    policy = NumericPolicy(sparse_cap=20, zero_state_tol=1e-14)
    policy.cap("qubits", 20, "sparse_cap")
    with pytest.raises(CapacityError) as info:
        policy.cap("qubits", 23, "sparse_cap")
    assert str(info.value) == "23 qubits exceeds sparse_cap (20) by 3"
    with pytest.raises(KeyError, match="field: 21 qubits"):
        policy.cap("qubits", 21, "sparse_cap", error=lambda msg: KeyError(f"field: {msg}"))
    policy.floor("norm", 1e-14, "zero_state_tol")
    with pytest.raises(ValueError) as info:
        policy.floor("norm", 0.0, "zero_state_tol")
    assert str(info.value) == "norm 0.000e+00 is below zero_state_tol (1e-14) by 1.000e-14"
    with pytest.raises(ValueError, match="norm nan is below zero_state_tol"):
        policy.floor("norm", math.nan, "zero_state_tol")


# -- every routed bound refuses NaN and an over-tolerance value --------------

class _Scaled:
    """A stand-in one-qubit controlled operator: ``factor`` times the state."""

    toffoli_count = 0
    shape = (2, 2)

    def __init__(self, factor):
        self.factor = factor

    def __matmul__(self, vec):
        return self.factor * vec


def _fn_sequence(v):
    rho = MixedState(1, np.eye(2) / 2)
    rho._blocks = (SectorBlock(None, np.array([v, 0.6]), np.eye(2)),)  # a cached spectrum
    metrology.fn_sequence(rho, sum_z(1), 2)


# a NaN entry fails the Hermiticity check first: the NaN comes from a patched
# eigensolver, trace or norm


def _psd(v, monkeypatch):
    if math.isnan(v):
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([math.nan, 1.0]), np.eye(2)))
        v = 0.5
    MixedState(1, np.diag([1.0 - v, v])).sector_spectrum()


def _trace(v, monkeypatch):
    if math.isnan(v):
        monkeypatch.setattr(np, "trace", lambda m: math.nan)
        v = 0.5
    MixedState(1, np.diag([v, 0.5]))


def _annihilated(v, monkeypatch):
    psi = PureState(1, np.array([1.0, 0.0]))
    if math.isnan(v):  # the projected norm, once the probe is built
        monkeypatch.setattr(np.linalg, "norm", lambda vec: math.nan)
    deformed.deform(psi, DeformationSpec(beta=math.inf, gamma_kind="Z", target_sites=(0,),
                                         outcomes=(-1,)))


def _pull_through(v, monkeypatch):
    def moved(*args):
        curve = metrology.precision_curve(*args)
        return dataclasses.replace(curve, signal=curve.signal + v)

    monkeypatch.setattr(subsys, "precision_curve", moved)
    state = models.ghz_state(4)
    subsys.parity_theta_curve(state, subsys.make_ising_protocol(4, 2), np.linspace(0.05, 0.5, 3))


def _invariance(v, monkeypatch):
    values = iter([1.0, v])
    monkeypatch.setattr(metrology, "qfi_mixed", lambda rho, gen: SimpleNamespace(value=next(values)))
    channels.zz_channel_invariance_check(models.ghz_state(2), sum_z(2), 0.1)


def _square(v, monkeypatch):
    coeff = v
    if math.isnan(v):  # no PauliOperator holds a NaN coefficient: patch the square
        monkeypatch.setattr(deformed, "_pauli_product",
                            lambda a, b: SimpleNamespace(terms=[(v, "I")]))
        coeff = 1.0
    deformed._check_measurement_set([PauliOperator(1, [(coeff, "Z")])], 1)


def _monotone(v, monkeypatch):
    values = iter([1.0, v])
    monkeypatch.setattr(deformed, "deform", lambda psi, spec: None)
    monkeypatch.setattr(deformed, "expectation", lambda state, obs: next(values))
    deformed.uniform_outcome_lro_check(None, 2, [0.0, 1.0])


# id: (exception, field, run(v, monkeypatch), the over-tolerance v); each run
# raises with v = nan too
_ROUTED = {
    "pure_norm": (ValueError, "norm_tol", lambda v, mp: PureState(1, np.array([v, 0.0])), 1.1),
    "mixed_hermitian": (ValueError, "herm_tol",
                        lambda v, mp: MixedState(1, np.array([[0.5, v], [0.0, 0.5]])), 1e-6),
    "mixed_trace": (ValueError, "trace_tol", _trace, 0.6),
    "mixed_psd": (ValueError, "psd_tol", _psd, -0.1),
    "sld_hermitian": (ValueError, "herm_tol", lambda v, mp: metrology.sld(
        MixedState(1, np.eye(2) / 2), np.array([[0.0, v], [0.0, 0.0]])), 1e-6),
    "delta_theta": (ArithmeticError, "derivative_agree_tol",
                    lambda v, mp: metrology._delta_theta(0.1, 1.0, v, 0.5), 0.6),
    "povm": (ValueError, "herm_tol", lambda v, mp: metrology.classical_fisher(
        PureState(1, np.array([1.0, 0.0])), sum_z(1), [v * np.eye(2)], [0.1]), 0.9),
    "fn_sequence": (ValueError, "trace_tol", lambda v, mp: _fn_sequence(v), 0.6),
    "residual": (models.EigensolverError, "residual_tol",
                 lambda v, mp: models._check_residual(np.eye(2), np.array([1.0, 0.0]), v), 2.0),
    "qfi_report": (ValueError, "qfi_negative_tol",
                   lambda v, mp: metrology.QfiReport(v, "pure_variance"), -1.0),
    "hadamard_sum": (ValueError, "norm_tol",
                     lambda v, mp: symmetry.HadamardTestResult(v, 0.5, 0.0, 0.0, 0), 0.6),
    "hadamard_re": (ValueError, "norm_tol",
                    lambda v, mp: symmetry.HadamardTestResult(0.5, 0.5, v, 0.0, 0), 1.5),
    "hadamard_unitary": (ValueError, "unitary_tol", lambda v, mp: symmetry.hadamard_test(
        PureState(1, np.array([1.0, 0.0])), _Scaled(v)), 1.1),
    "born_sum": (ValueError, "trace_tol",
                 lambda v, mp: OutcomeEnsemble([(1,)], np.array([v]), []), 0.5),
    "pull_through": (AssertionError, "pull_through_tol", _pull_through, 1e-9),
    "zz_invariance": (AssertionError, "invariance_tol", _invariance, 1.1),
    "zero_vector": (ValueError, "zero_state_tol",
                    lambda v, mp: dephase_normalize(np.array([v, 0.0]), 1), 0.0),
    "annihilated": (ValueError, "zero_state_tol", _annihilated, 0.0),
    "pauli_square": (ValueError, "pauli_square_tol", _square, 1.0 + 1e-12),
    "monotone": (AssertionError, "monotone_tol", _monotone, 1.0 - 2e-10),
}


@pytest.mark.parametrize("bad", ["nan", "over"])
@pytest.mark.parametrize("name", list(_ROUTED))
def test_routed_bound_refuses_nan_and_names_field_and_excess(monkeypatch, name, bad):
    error, field, run, over = _ROUTED[name]
    with np.errstate(invalid="ignore"), pytest.raises(error) as info:
        run(math.nan if bad == "nan" else over, monkeypatch)
    message = str(info.value)
    assert field in message, message
    excess = message.rsplit(" by ", 1)[1]
    assert excess == "nan" if bad == "nan" else float(excess) > 0.0, message


# -- each new or reused field moves its check --------------------------------

# field: (module whose POLICY is patched, patched value, run, raises at the default)
_FIELDS = {
    "qfi_negative_tol": (metrology, 1e-10, lambda mp: metrology.QfiReport(-5e-10, "x"), False),
    "unitary_tol": (symmetry, 1e-13, lambda mp: symmetry.hadamard_test(
        PureState(1, np.array([1.0, 0.0])), _Scaled(1.0 + 5e-13)), False),
    "pull_through_tol": (subsys, 1e-10, lambda mp: _pull_through(1e-11, mp), True),
    "invariance_tol": (channels, 1e-10, lambda mp: _invariance(1.0 + 1e-9, mp), False),
    "norm_tol": (symmetry, 1e-13,
                 lambda mp: symmetry.HadamardTestResult(0.5 + 5e-13, 0.5, 0.0, 0.0, 0), False),
    "trace_tol": (deformed, 1e-11,
                  lambda mp: OutcomeEnsemble([(1,), (-1,)], np.array([0.5, 0.5 + 5e-11]), []),
                  False),
    "pauli_square_tol": (deformed, 1e-13, lambda mp: _square(1.0 + 2.5e-13, mp), False),
    "monotone_tol": (deformed, 1e-11, lambda mp: _monotone(1.0 - 5e-11, mp), False),
}


@pytest.mark.parametrize("field", list(_FIELDS))
def test_patching_a_field_moves_its_check(monkeypatch, field):
    module, value, run, raises = _FIELDS[field]
    error = (AssertionError, ValueError)
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(module, "POLICY", dataclasses.replace(POLICY, **{field: value}))
        if raises != patched:
            with pytest.raises(error, match=field):
                run(monkeypatch)
        else:
            run(monkeypatch)


# -- the spec dataclasses refuse non-finite fields ---------------------------

@pytest.mark.parametrize("build, field", [
    (lambda: channels.ChannelSpec(kind="global_dephase", chi=math.nan), "chi"),
    (lambda: channels.ChannelSpec(kind="bitflip_x", p=0.1, t=math.inf), "t"),
    (lambda: DeformationSpec(beta=math.nan, gamma_kind="X", target_sites=(0,), outcomes=(1,)),
     "beta"),
    (lambda: models.ModelSpec(kind="tfim", L=4, h=math.nan), "h"),
    (lambda: models.ModelSpec(kind="rydberg", L=4, omega=math.nan), "omega"),
    (lambda: models.ModelSpec(kind="rydberg", L=4, v1=math.inf), "v1"),
    (lambda: models.ModelSpec(kind="xxz", L=4, detuning=-math.inf), "detuning"),
], ids=["chi", "t", "beta", "h", "omega", "v1", "detuning"])
def test_spec_refuses_a_non_finite_field_and_names_it(build, field):
    with pytest.raises(ValueError, match=rf"^{field} "):
        build()


def test_projective_deformation_keeps_infinite_beta():
    assert DeformationSpec(beta=math.inf, gamma_kind="Z", target_sites=(0,)).beta == math.inf
