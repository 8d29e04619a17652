"""Declarative experiment configuration: flat key = value files plus overrides.

The file format is deliberately tiny: one `key = value` per line, `#`
comments, dotted keys for the parameter and simulation blocks.  The parser
keeps line numbers so schema violations point at the offending line; values
supplied on the command line report as line "cli".
"""

from __future__ import annotations

from dataclasses import dataclass

from .montecarlo import McConfig
from .params import SystemParams

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_file",
           "build_experiment", "parse_t_db", "METRICS", "METHODS",
           "SWEEPABLE"]

METRICS = ("coverage", "radar-rate", "fit-alpha", "conjecture1")
METHODS = ("analytic", "mc", "both")

# config/CLI name -> SystemParams field
SWEEPABLE = {
    "lam": "lam", "lambda": "lam", "mt": "mt", "mr": "mr", "beta": "beta",
    "ps": "ps", "sigma2": "sigma2", "l": "L", "n": "N",
}

_KNOWN_KEYS = {
    "metric", "method", "t_db", "out",
    "sweep.param", "sweep.values",
    "params.lam", "params.lambda", "params.mt", "params.mr", "params.beta",
    "params.ps", "params.sigma2", "params.l", "params.n", "params.alpha",
    "mc.trials", "mc.seed", "mc.workers",
    "fit.shape", "conj.shape", "conj.exponent",
}


class ConfigError(ValueError):
    """Schema or value error in an experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: metric, method, sweep and blocks."""

    metric: str
    method: str
    params: SystemParams
    t_db: tuple = ()
    sweep_param: str | None = None       # SystemParams field name
    sweep_values: tuple = ()
    mc: McConfig | None = None
    out: str | None = None
    fit_shape: int = 9
    conj_shape: int = 9
    conj_exponent: float = 4.0

    @property
    def sweep_label(self):
        return self.sweep_param if self.sweep_param is not None else "point"


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
    import difflib
    match = difflib.get_close_matches(key, _KNOWN_KEYS, n=1, cutoff=0.6)
    return match[0] if match else None


def _take(entries, key, conv, default=None, required=False):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw, where = entries.pop(key)
    try:
        return conv(raw)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def parse_t_db(text):
    """Parse 'LO:HI:STEP' (dB) or a comma list into a float tuple."""
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
    return tuple(float(p) for p in text.split(","))


def _parse_values(text):
    return tuple(float(p) for p in text.split(","))


_INT_FIELDS = {"mt", "mr", "L", "N"}


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

    kwargs = {}
    for cfg_name, fld in (("lam", "lam"), ("lambda", "lam"), ("mt", "mt"),
                          ("mr", "mr"), ("beta", "beta"), ("ps", "ps"),
                          ("sigma2", "sigma2"), ("l", "L"), ("n", "N")):
        val = _take(entries, f"params.{cfg_name}", float)
        if val is not None:
            kwargs[fld] = int(val) if fld in _INT_FIELDS else val
    alpha = _take(entries, "params.alpha", float)
    if alpha is not None:
        kwargs["alpha_fit"] = alpha
    if "ps" in kwargs:
        kwargs["pc"] = 1.0 - kwargs["ps"]
    try:
        params = SystemParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc

    t_db = _take(entries, "t_db", parse_t_db, default=())
    sweep_param_raw = _take(entries, "sweep.param", str)
    sweep_values = _take(entries, "sweep.values", _parse_values, default=())
    sweep_param = None
    if sweep_param_raw is not None:
        name = sweep_param_raw.lower()
        if name not in SWEEPABLE:
            raise ConfigError(
                f"sweep.param must be one of {sorted(set(SWEEPABLE))}, got {name!r}")
        sweep_param = SWEEPABLE[name]
        if not sweep_values:
            raise ConfigError("sweep.param given without sweep.values")
    elif sweep_values:
        raise ConfigError("sweep.values given without sweep.param")

    trials = _take(entries, "mc.trials", lambda s: int(float(s)))
    if method == "analytic" and trials is not None:
        raise ConfigError("method=analytic forbids the mc.trials field")
    mc_kwargs = {}
    if trials is not None:
        mc_kwargs["trials"] = trials
    for name in ("seed", "workers"):
        val = _take(entries, f"mc.{name}", lambda s: int(float(s)))
        if val is not None:
            mc_kwargs[name] = val
    try:
        mc = None if method == "analytic" else McConfig(**mc_kwargs)
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc

    out = _take(entries, "out", str)
    fit_shape = _take(entries, "fit.shape", lambda s: int(float(s)), default=9)
    conj_shape = _take(entries, "conj.shape", lambda s: int(float(s)), default=9)
    conj_exponent = _take(entries, "conj.exponent", float, default=4.0)

    if metric == "coverage" and not t_db:
        raise ConfigError("coverage experiments need a t_db grid")
    if metric == "coverage" and (params.pc == 0.0 or (
            sweep_param == "ps" and 1.0 in sweep_values)):
        raise ConfigError("coverage is undefined without communication power "
                          "(ps = 1 leaves pc = 0)")

    return ExperimentConfig(metric=metric, method=method, params=params,
                            t_db=tuple(t_db), sweep_param=sweep_param,
                            sweep_values=tuple(sweep_values), mc=mc, out=out,
                            fit_shape=fit_shape, conj_shape=conj_shape,
                            conj_exponent=conj_exponent)
