"""Scenario files: a flat INI document describing system, signals and analyses.

Schema (unknown sections and keys are rejected):

    [system]            A (row-major), plus either per-mode [subsystem.<label>]
                        sections or a parameterized family: ``family`` gives the
                        entries of b with the token ``u`` substituted by each
                        value in ``u_values`` (one mode per value, labeled by it).
    [subsystem.<L>]     A, b  (explicit affine mode with label L)
    [signal]            kind = explicit | from_dwell | periodic; explicit takes
                        ``times``/``modes``, the dwell kinds take ``modes`` and
                        ``T`` (scalar) or ``dwell`` (list); optional t0, x0,
                        horizon.  Additional signals via [signal.<name>].
    [analysis]          eps plus booleans certify, dwell_table, trapping,
                        convergence, triangle, tube, plot_data; transitions
                        ("a:b c:d"), x0 (";"-separated start vectors),
                        boundary_points + start_region (boundary starts for the
                        primary signal), horizon, i_max, triangle_modes
                        ("u0 v u1"), tube_from, tube_to, tube_times,
                        tube_boundary_count, box (lo hi, certify box per axis).
    [numeric]           step (default 1e-3), seed (42), samples (10000).

Every number must be finite, and out-of-range values (a nonpositive step
or eps, a horizon not after t0, a negative seed, samples < 1, i_max < 1,
boundary_points of 1 or 2, tube_boundary_count < 3, an empty box, decreasing
or negative tube_times) are rejected here with a ``ValidationError`` rather
than by a library check at run time.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    Label,
    SwitchedSystem,
    SwitchingSignal,
    make_affine_subsystem,
    signal_from_dwell,
)
from .errors import ParseError, ValidationError

_ANALYSIS_FLAGS = (
    "certify",
    "dwell_table",
    "trapping",
    "convergence",
    "triangle",
    "tube",
    "plot_data",
    "simulate",
)
_ALLOWED_KEYS = {
    "system": {"A", "family", "u_values", "dimension"},
    "subsystem": {"A", "b"},
    "signal": {
        "kind",
        "initial_mode",
        "modes",
        "times",
        "T",
        "dwell",
        "t0",
        "period",
        "x0",
        "horizon",
    },
    "analysis": set(_ANALYSIS_FLAGS)
    | {
        "eps",
        "transitions",
        "x0",
        "boundary_points",
        "start_region",
        "horizon",
        "i_max",
        "triangle_modes",
        "tube_from",
        "tube_to",
        "tube_times",
        "tube_boundary_count",
        "box",
    },
    "numeric": {"step", "seed", "samples"},
}


@dataclass
class SignalSpec:
    signal: SwitchingSignal
    x0: Optional[list[np.ndarray]] = None
    horizon: Optional[float] = None


@dataclass
class Scenario:
    """Fully validated experiment description."""

    system: SwitchedSystem
    eps: float
    signals: dict[str, SignalSpec]
    analyses: dict[str, bool]
    x0_list: list[np.ndarray] = field(default_factory=list)
    boundary_points: int = 0
    start_region: Optional[Label] = None
    horizon: Optional[float] = None
    transitions: Optional[list[tuple[Label, Label]]] = None
    i_max: int = 10
    triangle_modes: Optional[tuple[Label, Label, Label]] = None
    tube_from: Optional[Label] = None
    tube_to: Optional[Label] = None
    tube_times: Optional[list[float]] = None
    tube_boundary_count: int = 360
    box: tuple[float, float] = (-3.0, 3.0)
    step: float = 1e-3
    seed: int = 42
    samples: int = 10_000


def _parse_label(token: str) -> Label:
    if re.fullmatch(r"[+-]?\d+", token):
        return int(token)
    return token


def _number(value, where: str, kind: type = float, above=None, at_least=None):
    """``kind(value)``, with a ``ValidationError`` naming ``where`` on failure.

    Floats must be finite; ``above`` and ``at_least`` are optional strict and
    inclusive lower bounds.
    """
    try:
        x = kind(value)
    except ValueError:
        raise ValidationError(f"{where}: not a valid {kind.__name__}: {value!r}") from None
    if kind is float and not math.isfinite(x):
        raise ValidationError(f"{where}: must be finite, got {value!r}")
    if above is not None and not x > above:
        raise ValidationError(f"{where}: must be > {above}, got {value!r}")
    if at_least is not None and not x >= at_least:
        raise ValidationError(f"{where}: must be >= {at_least}, got {value!r}")
    return x


def _floats(value: str, where: str, at_least=None) -> list[float]:
    return [_number(tok, where, at_least=at_least) for tok in value.split()]


def _matrix(value: str, where: str) -> np.ndarray:
    """Square matrix from its row-major entries."""
    vals = _floats(value, where)
    n = int(round(len(vals) ** 0.5))
    if n == 0 or n * n != len(vals):
        raise ValidationError(f"{where} must be a square matrix (row-major)")
    return np.array(vals).reshape(n, n)


def _bool(value: str, where: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValidationError(f"{where}: expected a boolean, got {value!r}")


def _check_keys(section: str, keys, allowed_kind: str) -> None:
    allowed = _ALLOWED_KEYS[allowed_kind]
    for key in keys:
        if key not in allowed:
            raise ValidationError(f"unknown key {key!r} in section [{section}]")


def _parse_signal_section(name: str, sec, labels) -> SignalSpec:
    _check_keys(name, sec.keys(), "signal")
    kind = sec.get("kind", "explicit").strip()
    t0 = _number(sec.get("t0", "0"), f"[{name}] t0")
    if "initial_mode" not in sec:
        raise ValidationError(f"[{name}]: initial_mode is required")
    initial = _parse_label(sec["initial_mode"].strip())
    modes = [_parse_label(tok) for tok in sec.get("modes", "").split()]
    for m in [initial] + modes:
        if m not in labels:
            raise ValidationError(f"[{name}]: unknown mode label {m!r}")
    try:
        if kind == "explicit":
            times = _floats(sec.get("times", ""), f"[{name}] times")
            if len(times) != len(modes):
                raise ValidationError(f"[{name}]: times and modes must have equal length")
            period = _number(sec["period"], f"[{name}] period") if "period" in sec else None
            signal = SwitchingSignal(
                t0=t0, initial_mode=initial, segments=tuple(zip(times, modes)), period=period
            )
        elif kind in ("from_dwell", "periodic"):
            if "T" in sec:
                dwell = _number(sec["T"], f"[{name}] T")
            elif "dwell" in sec:
                dwell = _floats(sec["dwell"], f"[{name}] dwell")
            elif modes:
                raise ValidationError(f"[{name}]: T or dwell is required")
            else:
                dwell = None
            signal = signal_from_dwell(initial, modes, dwell, t0=t0, periodic=kind == "periodic")
        else:
            raise ValidationError(f"[{name}]: unknown signal kind {kind!r}")
    except ValueError as exc:  # the signal constructors' domain checks
        raise ValidationError(f"[{name}]: {exc}") from None
    x0 = None
    if "x0" in sec:
        x0 = [np.array(_floats(part, f"[{name}] x0")) for part in sec["x0"].split(";")]
    horizon = None
    if "horizon" in sec:
        horizon = _number(sec["horizon"], f"[{name}] horizon", above=t0)
    return SignalSpec(signal=signal, x0=x0, horizon=horizon)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; all defaults applied."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    if "system" not in cp:
        raise ValidationError("missing [system] section")
    sys_sec = cp["system"]
    _check_keys("system", sys_sec.keys(), "system")

    subsystems = []
    shared_A = None
    if "A" in sys_sec:
        shared_A = _matrix(sys_sec["A"], "[system] A")
    if "family" in sys_sec or "u_values" in sys_sec:
        if shared_A is None or "family" not in sys_sec or "u_values" not in sys_sec:
            raise ValidationError("[system] family needs A, family and u_values together")
        tokens = sys_sec["family"].split()
        u_values = [_parse_label(tok) for tok in sys_sec["u_values"].split()]
        if len(tokens) != shared_A.shape[0]:
            raise ValidationError("[system] family length must match the dimension of A")
        for u in u_values:
            b = np.array([_number(u if tok == "u" else tok, "[system] family") for tok in tokens])
            subsystems.append(make_affine_subsystem(shared_A, b, u))

    for section in cp.sections():
        if section.startswith("subsystem."):
            sec = cp[section]
            _check_keys(section, sec.keys(), "subsystem")
            label = _parse_label(section.split(".", 1)[1])
            if "A" in sec:
                A = _matrix(sec["A"], f"[{section}] A")
            elif shared_A is not None:
                A = shared_A
            else:
                raise ValidationError(f"[{section}]: A is required")
            if "b" not in sec:
                raise ValidationError(f"[{section}]: b is required")
            b = np.array(_floats(sec["b"], f"[{section}] b"))
            subsystems.append(make_affine_subsystem(A, b, label))
        elif section.startswith("signal.") or section in (
            "system",
            "signal",
            "analysis",
            "numeric",
        ):
            continue
        else:
            raise ValidationError(f"unknown section [{section}]")

    if not subsystems:
        raise ValidationError("scenario defines no subsystems")
    system = SwitchedSystem(subsystems=tuple(subsystems))
    labels = set(system.labels)

    signals: dict[str, SignalSpec] = {}
    if "signal" in cp:
        signals["signal"] = _parse_signal_section("signal", cp["signal"], labels)
    for section in cp.sections():
        if section.startswith("signal."):
            name = section.split(".", 1)[1]
            signals[name] = _parse_signal_section(section, cp[section], labels)

    if "analysis" not in cp:
        raise ValidationError("missing [analysis] section")
    an = cp["analysis"]
    _check_keys("analysis", an.keys(), "analysis")
    if "eps" not in an:
        raise ValidationError("[analysis]: eps is required")
    eps = _number(an["eps"], "[analysis] eps", above=0)
    analyses = {flag: _bool(an[flag], f"[analysis] {flag}") for flag in _ANALYSIS_FLAGS if flag in an}
    if not any(analyses.values()):
        raise ValidationError("[analysis]: at least one analysis must be requested")

    scenario = Scenario(system=system, eps=eps, signals=signals, analyses=analyses)

    if "transitions" in an:
        pairs = []
        for tok in an["transitions"].split():
            if ":" not in tok:
                raise ValidationError(f"[analysis] transitions: expected from:to, got {tok!r}")
            a, b = (_parse_label(p) for p in tok.split(":", 1))
            for m in (a, b):
                if m not in labels:
                    raise ValidationError(f"[analysis] transitions: unknown label {m!r}")
            pairs.append((a, b))
        scenario.transitions = pairs
    if "x0" in an:
        scenario.x0_list = [
            np.array(_floats(part, "[analysis] x0")) for part in an["x0"].split(";")
        ]
    if "boundary_points" in an:
        count = _number(an["boundary_points"], "[analysis] boundary_points", int, at_least=0)
        if 0 < count < 3:
            raise ValidationError(f"[analysis] boundary_points: must be 0 or >= 3, got {count}")
        scenario.boundary_points = count
    if "start_region" in an:
        label = _parse_label(an["start_region"].strip())
        if label not in labels:
            raise ValidationError(f"[analysis] start_region: unknown label {label!r}")
        scenario.start_region = label
    if "horizon" in an:
        scenario.horizon = _number(an["horizon"], "[analysis] horizon", above=0)
        for name, spec in signals.items():
            if spec.horizon is None and not scenario.horizon > spec.signal.t0:
                raise ValidationError(f"[analysis] horizon: must exceed the t0 of signal {name!r}")
    if "i_max" in an:
        scenario.i_max = _number(an["i_max"], "[analysis] i_max", int, at_least=1)
    if "triangle_modes" in an:
        trio = [_parse_label(tok) for tok in an["triangle_modes"].split()]
        if len(trio) != 3:
            raise ValidationError("[analysis] triangle_modes needs exactly three labels")
        for m in trio:
            if m not in labels:
                raise ValidationError(f"[analysis] triangle_modes: unknown label {m!r}")
        scenario.triangle_modes = tuple(trio)
    for key in ("tube_from", "tube_to"):
        if key in an:
            label = _parse_label(an[key].strip())
            if label not in labels:
                raise ValidationError(f"[analysis] {key}: unknown label {label!r}")
            setattr(scenario, key, label)
    if "tube_times" in an:
        times = _floats(an["tube_times"], "[analysis] tube_times", at_least=0)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("[analysis] tube_times: must be increasing")
        scenario.tube_times = times
    if "tube_boundary_count" in an:
        scenario.tube_boundary_count = _number(
            an["tube_boundary_count"], "[analysis] tube_boundary_count", int, at_least=3
        )
    if "box" in an:
        box = _floats(an["box"], "[analysis] box")
        if len(box) != 2:
            raise ValidationError("[analysis] box needs exactly two numbers (lo hi)")
        if not box[0] < box[1]:
            raise ValidationError(f"[analysis] box: lo must be < hi, got {an['box']!r}")
        scenario.box = (box[0], box[1])

    if "numeric" in cp:
        num = cp["numeric"]
        _check_keys("numeric", num.keys(), "numeric")
        scenario.step = _number(num.get("step", scenario.step), "[numeric] step", above=0)
        scenario.seed = _number(num.get("seed", scenario.seed), "[numeric] seed", int, at_least=0)
        scenario.samples = _number(
            num.get("samples", scenario.samples), "[numeric] samples", int, at_least=1
        )
    return scenario


def signal_to_text(signal: SwitchingSignal, name: str = "signal") -> str:
    """Serialize a signal as an explicit scenario section (17 significant digits)."""
    out = io.StringIO()
    out.write(f"[{name}]\n")
    out.write("kind = explicit\n")
    out.write(f"t0 = {signal.t0:.17g}\n")
    out.write(f"initial_mode = {signal.initial_mode}\n")
    out.write("times = " + " ".join(f"{t:.17g}" for t, _ in signal.segments) + "\n")
    out.write("modes = " + " ".join(str(m) for _, m in signal.segments) + "\n")
    if signal.period is not None:
        out.write(f"period = {signal.period:.17g}\n")
    return out.getvalue()
