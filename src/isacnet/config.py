"""Declarative experiment configuration: flat key = value files plus overrides.

The file format is deliberately tiny: one `key = value` per line, `#`
comments, dotted keys for the parameter and simulation blocks.  The parser
keeps line numbers so schema violations point at the offending line; values
supplied on the command line report as line "cli".

`SWEEPABLE` is the one table of parameter keys: `params.<name>` and
`sweep.param = <name>` both go through it, and `build_experiment` resolves
every sweep value into a validated `SystemParams` point before anything
runs.  `_READS` says which of its fields and `t_db`/`mc.*` keys each
metric reads; any other is an error, never silently dropped.  Integer keys
(`l, n, mt, mr`, `mc.*`) accept whole numbers only, as in `2e5`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .approx import MIN_KS_TRIALS
from .montecarlo import McConfig
from .params import SystemParams

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_file",
           "build_experiment", "parse_t_db", "METRICS", "METHODS",
           "SWEEPABLE", "DEFAULT_T_DB"]

METRICS = ("coverage", "radar-rate", "fit-alpha", "conjecture1")
METHODS = ("analytic", "mc", "both")

# the documented threshold grid of the coverage figures: -10..20 dB, 2 dB steps
DEFAULT_T_DB = "-10:20:2"

# config/CLI name -> SystemParams field
SWEEPABLE = {
    "lambda": "lam", "mt": "mt", "mr": "mr", "beta": "beta",
    "ps": "ps", "sigma2": "sigma2", "l": "L", "n": "N",
}
_INT_FIELDS = {"mt", "mr", "L", "N"}

_KNOWN_KEYS = {
    "metric", "method", "t_db", "out",
    "sweep.param", "sweep.values", "mc.trials", "mc.seed", "mc.workers",
} | {f"params.{name}" for name in SWEEPABLE}

# metric -> the SystemParams fields and t_db/mc.* keys it reads.  Coverage
# is density-free yet reads lam: figure 7 sweeps it to show just that.
# conjecture1 runs in one process, so it reads no mc.workers.
_READS = {
    "coverage": {"L", "mt", "beta", "ps", "lam", "t_db",
                 "mc.trials", "mc.seed", "mc.workers"},
    "radar-rate": {"N", "mt", "mr", "beta", "ps", "sigma2", "lam",
                   "mc.trials", "mc.seed", "mc.workers"},
    "fit-alpha": {"mt"},
    "conjecture1": {"L", "lam", "mt", "beta", "mc.trials", "mc.seed"},
}


class ConfigError(ValueError):
    """Schema or value error in an experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: metric, method, sweep and blocks.

    `points` holds one (swept {field: value}, SystemParams) pair per sweep
    value, or the single pair ({}, params) without a sweep.
    """

    metric: str
    method: str
    params: SystemParams
    points: tuple = ()
    t_db: tuple = ()
    mc: McConfig | None = None
    out: str | None = None


def parse_config_file(path):
    """Read a key = value file into {key: (raw_value, "path:line")}."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ConfigError(f"{where}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().lower()
            value = value.strip()
            if key in entries:
                raise ConfigError(f"{where}: duplicate key {key!r} "
                                  f"(first set at {entries[key][1]})")
            entries[key] = (value, where)
    return entries


def _reject_unknown(entries):
    for key, (_, where) in entries.items():
        if key not in _KNOWN_KEYS:
            hint = _closest(key)
            extra = f" (did you mean {hint!r}?)" if hint else ""
            raise ConfigError(f"{where}: unknown key {key!r}{extra}")


def _closest(key):
    """The known key an unknown one most likely meant: `params.<field>`
    for a SystemParams field with another config name gets that name
    (`params.lam` is 'params.lambda', not the nearer 'params.l')."""
    fld = key.removeprefix("params.")
    names = {f: name for name, f in SWEEPABLE.items()}
    if fld != key and fld in names:
        return f"params.{names[fld]}"
    import difflib
    match = difflib.get_close_matches(key, _KNOWN_KEYS, n=1, cutoff=0.6)
    return match[0] if match else None


def _reject_unused(entries, metric):
    """A key the metric does not read is an error, never silently dropped."""
    # keys no metric reads (metric, out, an unknown sweep name, ...) pass
    readable = set().union(*_READS.values())
    for key, (raw, where) in entries.items():
        what = key
        if key == "sweep.param":
            key, what = f"params.{raw.lower()}", f"a sweep of {raw}"
        key = SWEEPABLE.get(key.removeprefix("params."), key)
        if key in readable and key not in _READS[metric]:
            raise ConfigError(f"{where}: {what} has no effect on metric {metric!r}")


def _take(entries, key, conv, default=None, required=False):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw, where = entries.pop(key)
    try:
        return conv(raw)
    except Exception as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def parse_t_db(text):
    """Parse 'LO:HI:STEP' (dB) or a strictly increasing comma list into a
    float tuple."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be LO:HI:STEP")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0 or hi < lo:
            raise ValueError("grid must satisfy lo <= hi, step > 0")
        n = int(round((hi - lo) / step))
        grid = [lo + i * step for i in range(n + 1)]
        if grid[-1] > hi + 1e-9:
            grid.pop()
        return tuple(grid)
    grid = tuple(float(p) for p in text.split(","))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("a comma list must be strictly increasing")
    return grid


def _int(text):
    """A whole number from text such as '200000' or '2e5'; rejects '1.5'."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not a whole number")
    return int(value)


def _point(params, name, raw, where):
    """Set the field behind config name `name` from raw text.

    Returns the (swept {field: value}, SystemParams) pair; a value that is
    malformed or that SystemParams rejects is a ConfigError naming `where`.
    """
    fld = SWEEPABLE[name]
    try:
        value = (_int if fld in _INT_FIELDS else float)(raw)
        changes = {fld: value}
        if fld == "ps":
            changes["pc"] = 1.0 - value
        return {fld: value}, params.with_(**changes)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value {raw!r} for {name!r}: {exc}") from exc


def build_experiment(entries, overrides=None):
    """Validate raw entries (plus CLI overrides, which win) into a config."""
    entries = dict(entries)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        entries[key.lower()] = (str(value), "cli")
    _reject_unknown(entries)

    metric = _take(entries, "metric", str, required=True).lower()
    if metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}, got {metric!r}")
    method = _take(entries, "method", str, default="both").lower()
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    _reject_unused(entries, metric)

    params = SystemParams()
    for name in SWEEPABLE:
        if f"params.{name}" in entries:
            raw, where = entries.pop(f"params.{name}")
            _, params = _point(params, name, raw, where)

    t_db = _take(entries, "t_db", parse_t_db, default=())
    sweep_name = _take(entries, "sweep.param", str)
    sweep_values = entries.pop("sweep.values", None)
    if sweep_name is None:
        if sweep_values is not None:
            raise ConfigError(f"{sweep_values[1]}: sweep.values given "
                              "without sweep.param")
        points = (({}, params),)
    else:
        sweep_name = sweep_name.lower()
        if sweep_name not in SWEEPABLE:
            raise ConfigError(
                f"sweep.param must be one of {sorted(SWEEPABLE)}, "
                f"got {sweep_name!r}")
        if sweep_values is None:
            raise ConfigError("sweep.param given without sweep.values")
        raw, where = sweep_values
        points = tuple(_point(params, sweep_name, v.strip(), where)
                       for v in raw.split(","))

    mc_kwargs = {name: _take(entries, f"mc.{name}", _int)
                 for name in ("trials", "seed", "workers")}
    mc_kwargs = {name: v for name, v in mc_kwargs.items() if v is not None}
    if method == "analytic" and mc_kwargs:
        key = next(iter(mc_kwargs))
        raise ConfigError(f"method=analytic forbids the mc.{key} field")
    try:
        mc = None if method == "analytic" else McConfig(**mc_kwargs)
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc

    if metric == "coverage" and not t_db:
        raise ConfigError("coverage experiments need a t_db grid")
    if metric == "coverage" and any(p.pc == 0 for _, p in points):
        raise ConfigError("coverage is undefined without communication power "
                          "(ps = 1 leaves pc = 0)")
    if metric == "conjecture1" and (mc is None
                                    or mc.trials < MIN_KS_TRIALS):
        raise ConfigError("conjecture1 is a Monte Carlo test and needs at "
                          f"least {MIN_KS_TRIALS} trials")

    return ExperimentConfig(metric=metric, method=method, params=params,
                            points=points, t_db=tuple(t_db), mc=mc,
                            out=_take(entries, "out", str))
