"""Scenario files: a flat INI document describing system, signals and analyses.

Schema (unknown sections and keys are rejected):

    [system]            A (row-major), plus either per-mode [subsystem.<label>]
                        sections or a parameterized family: ``family`` gives the
                        entries of b with the token ``u`` substituted by each
                        value in ``u_values`` (one mode per value, labeled by it).
    [subsystem.<L>]     A, b  (explicit affine mode with label L)
    [signal]            kind, initial_mode, modes and optional t0, x0,
                        horizon, plus the keys of its kind (no others):
                          explicit (default)    times, optional period (the
                                                pattern on [t0, t0 + period)
                                                repeats)
                          from_dwell, periodic  T (scalar) or dwell (list)
                        Additional signals via [signal.<name>].
    [analysis]          eps plus booleans certify, dwell_table, trapping,
                        convergence, triangle, tube, plot_data; transitions
                        ("a:b c:d"), x0 (";"-separated start vectors),
                        boundary_points + start_region (boundary starts for the
                        primary signal), horizon, i_max, triangle_modes
                        ("u0 v u1"), tube_from, tube_to, tube_times,
                        tube_boundary_count, box (lo hi, certify box per axis).
    [numeric]           step (default 1e-3), seed (42), samples (10000).

``parse_scenario`` is the one place that decides whether a scenario is
complete and valid.  It applies the CLI overrides first, resolves every
default, and raises a ``SwitchDwellError`` (``ParseError`` for malformed
INI, ``ValidationError`` or a domain error otherwise) before any output file
is written; ``cli.analyse`` only executes what it returns.

Every number must be finite, and out-of-range values (a nonpositive step or
eps, a horizon not after t0, a negative seed, samples < 1, i_max < 1,
boundary_points of 1 or 2, tube_boundary_count < 3, an empty box or one
whose width hi - lo overflows, decreasing or negative tube_times, a step of
at most 8 units in the last place of a simulated signal's t0 or horizon,
whichever is larger in magnitude) are rejected.  Defaults are resolved per
signal: its starts are its own ``x0``, else ``[analysis] x0``, followed for
the primary ``[signal]`` by the ``boundary_points`` starts on the boundary
of ``start_region``'s region; its horizon is its own, else ``[analysis]
horizon``.  A periodic pattern must switch; it unrolls by the rule in
``core.SwitchingSignal``.  Without ``transitions``, the dwell table takes
the primary signal's switches over one period, the wrap included.
Companion rules:

* simulate, trapping, convergence and plot_data need a signal, and every
  signal then needs starts of the system's dimension and a horizon;
* convergence needs the primary [signal] with at least i_max switches
  before its horizon; dwell_table needs transitions;
* triangle needs triangle_modes of one certificate (alpha, beta, decay
  rate); tube needs tube_from, tube_to and tube_times;
* plot_data needs a 2-D system;
* boundary_points and start_region come together; mode labels are unique
  and hold no comma, double quote, slash, backslash, whitespace or control
  character, so that each is one CSV cell and part of one file name.

Work budget, by arithmetic before anything is allocated: at most
``MAX_SWITCHES`` switches per simulated signal up to its horizon (its
periods times ``switches_per_period``), at most
``MAX_SAMPLES`` RK4 samples summed over all trajectories, and at most
``MAX_POINTS`` certificate samples per mode, boundary starts, or tube points
(``tube_boundary_count`` times the number of ``tube_times``).
"""

from __future__ import annotations

import configparser
import math
import re
import unicodedata
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Label,
    SwitchedSystem,
    SwitchingSignal,
    make_affine_subsystem,
    signal_from_dwell,
)
from .dwell import _shared_certificate
from .errors import ParseError, ValidationError
from .lyapunov import region_boundary_points
from .sim import _time_resolution

# The work budget.  A simulated 2-D trajectory holds about 24 bytes per RK4
# sample (time and state; modes live in its switch events), so MAX_SAMPLES
# caps the held trajectories near 0.24 GB.  Its CSV, about 80 bytes per
# sample, is streamed in blocks of 2048 rows: rendering holds V (8 bytes
# per sample) and the block, and the V pass peaks near 32 bytes per sample
# (6.4 MB for 200 001 demo-system samples, tracemalloc, numpy 2), near
# 0.32 GB at MAX_SAMPLES.  A switch costs a few hundred bytes
# per trajectory (its tuple, event and state copy).  A certificate check
# holds about 160 bytes per 2-D sample, and a tube point about 150 bytes as
# JSON, so MAX_POINTS caps either near 0.2 GB.
MAX_SWITCHES = 10**6
MAX_SAMPLES = 10**7
MAX_POINTS = 10**6

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
_SIMULATING = ("simulate", "trapping", "convergence", "plot_data")
_ALLOWED_KEYS = {
    "system": {"A", "family", "u_values"},
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
_KIND_KEYS = {  # the [signal] keys that only some kinds read
    "explicit": {"times", "period"},
    "from_dwell": {"T", "dwell"},
    "periodic": {"T", "dwell"},
}


@dataclass
class SignalSpec:
    """A signal with its resolved starts and horizon."""

    signal: SwitchingSignal
    x0: list[np.ndarray]
    horizon: Optional[float]


@dataclass
class Scenario:
    """Fully validated experiment description."""

    system: SwitchedSystem
    eps: float
    signals: dict[str, SignalSpec]
    analyses: dict[str, bool]
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

    @property
    def simulates(self) -> bool:
        """Whether a requested analysis needs the signals' trajectories."""
        return any(self.analyses.get(flag) for flag in _SIMULATING)


def _parse_label(token: str) -> Label:
    if re.fullmatch(r"[+-]?\d+", token):
        return int(token)
    return token


def _mode_label(token: str, where: str) -> Label:
    """The label of a new mode, which must be safe as a CSV cell and in a file name."""
    if not token:
        raise ValidationError(f"{where}: mode label is empty")
    if any(ch in ',"/\\' or ch.isspace() or unicodedata.category(ch) == "Cc" for ch in token):
        raise ValidationError(
            f"{where}: mode label {token!r} holds a comma, double quote, slash, backslash, "
            "whitespace or control character"
        )
    return _parse_label(token)


def _number(value, where: str, kind: type = float, above=None, at_least=None, at_most=None):
    """``kind(value)``, with a ``ValidationError`` naming ``where`` on failure.

    Floats must be finite; ``above`` and ``at_least`` are optional strict and
    inclusive lower bounds, ``at_most`` an inclusive upper bound.
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
    if at_most is not None and not x <= at_most:
        raise ValidationError(f"{where}: must be <= {at_most}, got {value!r}")
    return x


def _pick(override, flag: str, sec, key: str, default=None):
    """(value, where) for ``_number``: the CLI override ``flag`` wins over ``sec[key]``."""
    if override is not None:
        return override, flag
    return sec.get(key, default), f"[{sec.name}] {key}"


def _floats(value: str, where: str, at_least=None) -> list[float]:
    return [_number(tok, where, at_least=at_least) for tok in value.split()]


def _starts(value: str, where: str) -> list[np.ndarray]:
    return [np.array(_floats(part, where)) for part in value.split(";")]


def _label(value: str, where: str, system: SwitchedSystem) -> Label:
    label = _parse_label(value.strip())
    if label not in system:
        raise ValidationError(f"{where}: unknown label {label!r}")
    return label


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


def _check_keys(sec, kind: str) -> None:
    allowed = _ALLOWED_KEYS[kind]
    for key in sec.keys():
        if key not in allowed:
            raise ValidationError(f"unknown key {key!r} in section [{sec.name}]")


def _parse_signal_section(sec, system: SwitchedSystem, x0, horizon) -> SignalSpec:
    """The signal of ``sec``; ``x0`` and ``horizon`` apply when it sets none."""
    name = sec.name
    _check_keys(sec, "signal")
    kind = sec.get("kind", "explicit").strip()
    if kind not in _KIND_KEYS:
        raise ValidationError(f"[{name}]: unknown signal kind {kind!r}")
    for key in ("times", "period", "T", "dwell"):
        if key in sec and key not in _KIND_KEYS[kind]:
            raise ValidationError(f"[{name}]: {key} does not apply to kind = {kind}")
    t0 = _number(sec.get("t0", "0"), f"[{name}] t0")
    if "initial_mode" not in sec:
        raise ValidationError(f"[{name}]: initial_mode is required")
    initial = _parse_label(sec["initial_mode"].strip())
    modes = [_parse_label(tok) for tok in sec.get("modes", "").split()]
    for m in [initial] + modes:
        if m not in system:
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
        else:
            if "T" in sec and "dwell" in sec:
                raise ValidationError(f"[{name}]: set T or dwell, not both")
            if "T" in sec:
                dwell = _number(sec["T"], f"[{name}] T")
            elif "dwell" in sec:
                dwell = _floats(sec["dwell"], f"[{name}] dwell")
            elif modes:
                raise ValidationError(f"[{name}]: T or dwell is required")
            else:
                dwell = None
            signal = signal_from_dwell(initial, modes, dwell, t0=t0, periodic=kind == "periodic")
    except ValueError as exc:  # the signal constructors' domain checks
        raise ValidationError(f"[{name}]: {exc}") from None
    x0 = _starts(sec["x0"], f"[{name}] x0") if "x0" in sec else list(x0)
    for x in x0:
        if x.shape != (system.dimension,):
            raise ValidationError(
                f"[{name}] x0: a start of dimension {x.size} for a system of "
                f"dimension {system.dimension}"
            )
    if "horizon" in sec:
        horizon = _number(sec["horizon"], f"[{name}] horizon")
    if horizon is not None and not horizon > t0:
        raise ValidationError(f"[{name}]: horizon {horizon!r} must exceed t0 = {t0!r}")
    return SignalSpec(signal=signal, x0=x0, horizon=horizon)


def parse_scenario(text: str, *, step=None, eps=None, seed=None, analyses=None) -> Scenario:
    """Parse, resolve and validate a scenario document.

    ``step``, ``eps`` and ``seed`` override the document's values and
    ``analyses`` replaces its analysis flags (the CLI's options and
    subcommands); they are applied before any check.  The result is
    complete: every default is resolved and every companion rule and the
    work budget hold.
    """
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    for name in ("system", "analysis"):
        if name not in cp:
            raise ValidationError(f"missing [{name}] section")
    if "numeric" not in cp:
        cp.add_section("numeric")
    sys_sec, an, num = cp["system"], cp["analysis"], cp["numeric"]
    for sec in (sys_sec, an, num):
        _check_keys(sec, sec.name)

    modes = []  # (A, b, label) per mode
    shared_A = _matrix(sys_sec["A"], "[system] A") if "A" in sys_sec else None
    if "family" in sys_sec or "u_values" in sys_sec:
        if shared_A is None or "family" not in sys_sec or "u_values" not in sys_sec:
            raise ValidationError("[system] family needs A, family and u_values together")
        tokens = sys_sec["family"].split()
        if len(tokens) != shared_A.shape[0]:
            raise ValidationError("[system] family length must match the dimension of A")
        for value in sys_sec["u_values"].split():
            u = _mode_label(value, "[system] u_values")
            b = np.array([_number(u if tok == "u" else tok, "[system] family") for tok in tokens])
            modes.append((shared_A, b, u))
    for section in cp.sections():
        if section.startswith("subsystem."):
            sec = cp[section]
            _check_keys(sec, "subsystem")
            if "A" in sec:
                A = _matrix(sec["A"], f"[{section}] A")
            elif shared_A is not None:
                A = shared_A
            else:
                raise ValidationError(f"[{section}]: A is required")
            if "b" not in sec:
                raise ValidationError(f"[{section}]: b is required")
            b = np.array(_floats(sec["b"], f"[{section}] b"))
            modes.append((A, b, _mode_label(section.split(".", 1)[1], f"[{section}]")))
        elif not section.startswith("signal.") and section not in (
            "system",
            "signal",
            "analysis",
            "numeric",
        ):
            raise ValidationError(f"unknown section [{section}]")
    try:
        system = SwitchedSystem(subsystems=tuple(make_affine_subsystem(*m) for m in modes))
    except ValueError as exc:  # no modes, duplicate labels, an ill-posed mode
        raise ValidationError(f"[system]: {exc}") from None

    flags = {flag: _bool(an[flag], f"[analysis] {flag}") for flag in _ANALYSIS_FLAGS if flag in an}
    if analyses is not None:
        flags = dict(analyses)
    if not any(flags.values()):
        raise ValidationError("[analysis]: at least one analysis must be requested")
    if eps is None and "eps" not in an:
        raise ValidationError("[analysis]: eps is required")
    scenario = Scenario(
        system=system,
        eps=_number(*_pick(eps, "--eps", an, "eps"), above=0),
        signals={},
        analyses=flags,
    )
    scenario.step = _number(*_pick(step, "--step", num, "step", scenario.step), above=0)
    scenario.seed = _number(*_pick(seed, "--seed", num, "seed", scenario.seed), int, at_least=0)
    scenario.samples = _number(
        num.get("samples", scenario.samples),
        "[numeric] samples",
        int,
        at_least=1,
        at_most=MAX_POINTS,
    )

    boundary = []
    if ("boundary_points" in an) != ("start_region" in an):
        raise ValidationError("[analysis]: boundary_points and start_region go together")
    if "start_region" in an:
        region = _label(an["start_region"], "[analysis] start_region", system)
        count = _number(
            an["boundary_points"], "[analysis] boundary_points", int, at_least=0, at_most=MAX_POINTS
        )
        if 0 < count < 3:
            raise ValidationError(f"[analysis] boundary_points: must be 0 or >= 3, got {count}")
        if count:
            boundary = list(region_boundary_points(system[region], scenario.eps, count))
    x0 = _starts(an["x0"], "[analysis] x0") if "x0" in an else []
    horizon = _number(an["horizon"], "[analysis] horizon", above=0) if "horizon" in an else None
    if "signal.signal" in cp:
        raise ValidationError("[signal.signal]: the name 'signal' belongs to the primary [signal]")
    names = (["signal"] if "signal" in cp else []) + [
        s for s in cp.sections() if s.startswith("signal.")
    ]
    for section in names:
        spec = _parse_signal_section(cp[section], system, x0, horizon)
        scenario.signals[section.removeprefix("signal.")] = spec
    primary = scenario.signals.get("signal")
    if primary is not None:
        primary.x0 += boundary

    if "transitions" in an:
        pairs = []
        for tok in an["transitions"].split():
            if ":" not in tok:
                raise ValidationError(f"[analysis] transitions: expected from:to, got {tok!r}")
            pairs.append(tuple(_label(p, "[analysis] transitions", system) for p in tok.split(":", 1)))
        scenario.transitions = pairs
    elif primary is not None:
        sig = primary.signal
        scenario.transitions = [(a, b) for _, a, b in sig.first_switches(sig.switches_per_period)]
    if "i_max" in an:
        scenario.i_max = _number(an["i_max"], "[analysis] i_max", int, at_least=1)
    if "triangle_modes" in an:
        trio = an["triangle_modes"].split()
        if len(trio) != 3:
            raise ValidationError("[analysis] triangle_modes needs exactly three labels")
        scenario.triangle_modes = tuple(
            _label(m, "[analysis] triangle_modes", system) for m in trio
        )
    for key in ("tube_from", "tube_to"):
        if key in an:
            setattr(scenario, key, _label(an[key], f"[analysis] {key}", system))
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
        if not 0 < box[1] - box[0] < math.inf:
            raise ValidationError(
                f"[analysis] box: lo must be < hi with a finite hi - lo, got {an['box']!r}"
            )
        scenario.box = (box[0], box[1])

    if scenario.simulates:
        if not scenario.signals:
            raise ValidationError("simulation requested but no signal defined")
        samples = 0.0
        for name, spec in scenario.signals.items():
            if not spec.x0:
                raise ValidationError(f"signal {name!r}: no initial conditions")
            if spec.horizon is None:
                raise ValidationError(f"signal {name!r}: no horizon")
            sig = spec.signal
            periods = 1 if sig.period is None else (spec.horizon - sig.t0) / sig.period + 1
            switches = periods * sig.switches_per_period
            if not switches <= MAX_SWITCHES:  # inf too: an overflowing span
                raise ValidationError(
                    f"signal {name!r}: {switches:.3g} switches up to its horizon, "
                    f"over the budget of {MAX_SWITCHES}"
                )
            # each interval's grid has at most one sample beyond span / step
            span = spec.horizon - spec.signal.t0
            samples += len(spec.x0) * (span / scenario.step + switches + 2)
        if not samples <= MAX_SAMPLES:
            raise ValidationError(
                f"{samples:.3g} RK4 samples over all trajectories, "
                f"over the budget of {MAX_SAMPLES}"
            )
        for name, spec in scenario.signals.items():
            if not scenario.step > (finest := _time_resolution(spec.signal.t0, spec.horizon)):
                raise ValidationError(f"signal {name!r}: times this large need step > {finest:.3g}")
    if flags.get("convergence"):
        if primary is None:
            raise ValidationError("convergence needs the primary [signal]")
        # bounded: the budget above has capped the switches
        switches = len(primary.signal.switches_until(primary.horizon))
        if switches < scenario.i_max:
            raise ValidationError(
                f"convergence needs i_max = {scenario.i_max} switches of the primary "
                f"[signal] before its horizon, it makes {switches}"
            )
    if flags.get("dwell_table") and not scenario.transitions:
        raise ValidationError("dwell_table needs transitions (explicit or via a signal)")
    if flags.get("triangle"):
        if scenario.triangle_modes is None:
            raise ValidationError("triangle analysis needs triangle_modes")
        _shared_certificate([system[m] for m in scenario.triangle_modes])
    if flags.get("tube"):
        if scenario.tube_from is None or scenario.tube_to is None or not scenario.tube_times:
            raise ValidationError("tube analysis needs tube_from, tube_to and tube_times")
        points = len(scenario.tube_times) * scenario.tube_boundary_count
        if points > MAX_POINTS:
            raise ValidationError(f"{points} tube points, over the budget of {MAX_POINTS}")
    if flags.get("plot_data") and system.dimension != 2:
        raise ValidationError("plot data emission needs a 2-D system")
    return scenario
