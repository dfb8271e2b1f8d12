"""The shipped example specs.

One-bit clock and DieHard are parsed from .tla sources in this package;
Euclid and Therac-25 are built as expression trees (both take their
shape from published descriptions of the originals); the steam boiler
is the temporal encoding of the closed loop from the streams module.
"""

from __future__ import annotations

from importlib import resources

from .. import spec as sp
from ..values import BOOLEANS, FALSE


def _shipped(filename: str) -> str:
    return resources.files(__package__).joinpath(filename).read_text()


# The parser and the stream layer are imported by the examples that use
# them, so a process that checks another example never loads them.


def onebit() -> sp.TemporalSpec:
    from ..tla import parse_module, to_spec
    return to_spec(parse_module(_shipped("onebit.tla")), name="onebit")


def diehard() -> sp.TemporalSpec:
    from ..tla import parse_module, to_spec
    module = parse_module(_shipped("diehard.tla"))
    return to_spec(module, name="diehard", invariant_names=("big_ne_4",))


def euclid(M: int = 24, N: int = 16) -> sp.TemporalSpec:
    """Subtraction GCD: repeatedly subtract the smaller from the larger."""
    if M < 1 or N < 1:
        msg = f"Euclid needs positive M and N, got {M} and {N}"
        raise ValueError(msg)
    x = sp.Var("x")
    y = sp.Var("y")
    xn = sp.Primed("x")
    yn = sp.Primed("y")
    subtract_y = sp.conj(sp.Gt(x, y), sp.Eq(xn, sp.Sub(x, y)), sp.Eq(yn, y))
    subtract_x = sp.conj(sp.Gt(y, x), sp.Eq(yn, sp.Sub(y, x)), sp.Eq(xn, x))
    type_ok = sp.And(sp.In(x, sp.IntRange(sp.intval(1), sp.intval(M))),
                     sp.In(y, sp.IntRange(sp.intval(1), sp.intval(N))))
    return sp.TemporalSpec(
        name="euclid",
        variables=("x", "y"),
        init=sp.And(sp.Eq(x, sp.intval(M)), sp.Eq(y, sp.intval(N))),
        actions=(
            sp.NamedAction("SubtractY", subtract_y),
            sp.NamedAction("SubtractX", subtract_x),
        ),
        invariants=(("TypeOK", type_ok),),
        params={"M": M, "N": N},
    )


def therac25() -> sp.TemporalSpec:
    """Treatment console race: an edit during the settling window leaves
    the beam configured for the original selection.

    mode and target use 0 for idle, 1 for photon, 2 for electron; the
    eight-second settling window is the timer countdown.  The hazard is
    firing in electron mode while the beam is still at photon strength.
    """
    mode = sp.Var("mode")
    target = sp.Var("target")
    timer = sp.Var("timer")
    beam = sp.Var("beamHigh")
    fired = sp.Var("fired")

    def frame(**primed):
        """Equality conjuncts for every variable, defaults to unchanged."""
        parts = []
        for name in ("mode", "target", "timer", "beamHigh", "fired"):
            rhs = primed.get(name, sp.Var(name))
            parts.append(sp.Eq(sp.Primed(name), rhs))
        return parts

    def act(*guards, **primed):
        return sp.conj(*guards, *frame(**primed))

    select_photon = act(
        sp.Not(fired), sp.Eq(mode, sp.intval(0)),
        mode=sp.intval(1), target=sp.intval(1), timer=sp.intval(8))
    select_electron = act(
        sp.Not(fired), sp.Eq(mode, sp.intval(0)),
        mode=sp.intval(2), target=sp.intval(2), timer=sp.intval(8))
    # the edit changes the displayed mode only; target keeps settling
    # toward the original selection
    cursor_up = act(
        sp.Not(fired), sp.Eq(mode, sp.intval(1)), sp.Gt(timer, sp.intval(0)),
        mode=sp.intval(2))
    settled = sp.Or(
        sp.And(sp.Gt(timer, sp.intval(1)),
               sp.Eq(sp.Primed("beamHigh"), beam)),
        sp.And(sp.Eq(timer, sp.intval(1)),
               sp.Or(sp.And(sp.Eq(target, sp.intval(1)),
                            sp.Eq(sp.Primed("beamHigh"), sp.boolval(True))),
                     sp.And(sp.Neq(target, sp.intval(1)),
                            sp.Eq(sp.Primed("beamHigh"), sp.boolval(False))))))
    tick = sp.conj(
        sp.Gt(timer, sp.intval(0)),
        sp.Eq(sp.Primed("mode"), mode),
        sp.Eq(sp.Primed("target"), target),
        sp.Eq(sp.Primed("timer"), sp.Sub(timer, sp.intval(1))),
        sp.Eq(sp.Primed("fired"), fired),
        settled)
    fire = act(
        sp.Not(fired), sp.Eq(timer, sp.intval(0)), sp.Gt(mode, sp.intval(0)),
        fired=sp.boolval(True))

    booleans = sp.Const(BOOLEANS)
    type_ok = sp.conj(
        sp.In(mode, sp.IntRange(sp.intval(0), sp.intval(2))),
        sp.In(target, sp.IntRange(sp.intval(0), sp.intval(2))),
        sp.In(timer, sp.IntRange(sp.intval(0), sp.intval(8))),
        sp.In(beam, booleans),
        sp.In(fired, booleans))
    no_overdose = sp.Not(sp.conj(fired, sp.Eq(mode, sp.intval(2)), beam))

    return sp.TemporalSpec(
        name="therac25",
        variables=("mode", "target", "timer", "beamHigh", "fired"),
        init=sp.conj(
            sp.Eq(mode, sp.intval(0)),
            sp.Eq(target, sp.intval(0)),
            sp.Eq(timer, sp.intval(0)),
            sp.Eq(beam, sp.Const(FALSE)),
            sp.Eq(fired, sp.Const(FALSE))),
        actions=(
            sp.NamedAction("SelectPhoton", select_photon),
            sp.NamedAction("SelectElectron", select_electron),
            sp.NamedAction("CursorUp", cursor_up),
            sp.NamedAction("Tick", tick),
            sp.NamedAction("Fire", fire),
        ),
        invariants=(("TypeOK", type_ok), ("NoOverdose", no_overdose)),
    )


def steamboiler(**thresholds) -> sp.TemporalSpec:
    """The closed loop under `streams.Thresholds(**thresholds)`."""
    from ..streams import Thresholds, to_temporal_spec
    return to_temporal_spec(Thresholds(**thresholds))


# each example's builder, and the integer parameters it takes
_EXAMPLES = {
    "onebit": (onebit, ()),
    "diehard": (diehard, ()),
    "euclid": (euclid, ("M", "N")),
    "therac25": (therac25, ()),
    "steamboiler": (steamboiler, ("low", "high")),
}
EXAMPLE_NAMES = tuple(_EXAMPLES)


def load(name: str, params: dict | None = None) -> sp.TemporalSpec:
    """Resolve a built-in example by name, applying integer params."""
    if name not in EXAMPLE_NAMES:
        known = ", ".join(EXAMPLE_NAMES)
        msg = f"unknown example {name!r} (known: {known})"
        raise ValueError(msg)
    params = dict(params or {})
    build, allowed = _EXAMPLES[name]
    for key in params:
        if key not in allowed:
            hint = f"takes {', '.join(allowed)}" if allowed else "takes none"
            msg = f"example {name} has no parameter {key!r} ({hint})"
            raise ValueError(msg)
    return build(**params)
