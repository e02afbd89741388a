"""Flat key=value pipeline configuration.

One dotted key per line, '#' comments, order-insensitive. Unknown keys
are fatal so typos cannot silently fall back to defaults. Each key's
default, type and range is one ``Param`` entry: ``_SCALARS`` for the
scalar keys, ``models.FAMILIES`` for ``models.<family>.<param>``.
``validate`` checks every key against its entry, and the study window,
feature axes and model roster that several keys make together, when the
config is read, so a bad value is a config error (exit 1) before any
stage runs. The resolved config renders canonically (sorted keys) for
manifest hashing.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

from .cdr import StudyWindow
from .features import AXIS_TABLE, AxesConfig, ConfigError
from .models import FAMILIES, Param


def _is_day(text: str) -> bool:
    try:
        datetime.date.fromisoformat(text)
    except ValueError:
        return False
    return True


# Every scalar key: its default, type and range (any value if none is
# given). README.md lists them. window(), axes() and roster() check what
# several keys make together; a stage checks a limit that needs the data.
_SCALARS = {
    "seed": Param(42, int, lambda v: v >= 0),
    "workers": Param(1, int),  # below 1 runs as 1
    "out_dir": Param("out", str),
    "data.cdr": Param("", str),
    "data.header": Param("", str),
    "window.start_day": Param("2024-01-01", str, _is_day),
    "window.total_days": Param(183, int),
    "window.train_months": Param(4, int, lambda v: v >= 1),
    "window.eval_months": Param(2, int, lambda v: v >= 1),
    "simgen.n_subscribers": Param(5000, int, lambda v: v >= 0),
    "simgen.target_churn_fraction": Param(0.26, float, lambda v: 0 <= v <= 1),
    "simgen.daily_call_rate": Param(1.0, float, lambda v: v >= 0),
    "simgen.daily_sms_rate": Param(2.0, float, lambda v: v >= 0),
    "simgen.alter_pool_size": Param(1000, int, lambda v: v >= 1),
    "simgen.churn_decay_days": Param(110, int, lambda v: v >= 1),
    "simgen.competitor_signal_strength": Param(3.0, float, lambda v: v >= 0),
    "features.short_call_threshold_s": Param(10, int, lambda v: v >= 1),
    "features.day_start_hour": Param(8, int),
    "features.day_end_hour": Param(20, int),
    "features.denominators": Param("", str),
    # one value; kept so that configs which set it parse and hash as before
    "features.matrix_format": Param("binary", str, lambda v: v == "binary"),
    "selection.n_trees": Param(100, int, lambda v: v >= 1),
    "selection.max_depth": Param(12, int, lambda v: v >= 1),
    "selection.k": Param(100, int, lambda v: v >= 1),
    "models.roster": Param(",".join(FAMILIES), str),
    "cv.folds": Param(5, int, lambda v: v >= 2),
    "evaluate.threshold": Param(0.5, float, lambda v: not math.isnan(v)),
    "evaluate.bins": Param(20, int, lambda v: v >= 1),
}
# every key; AxesConfig checks the dimensions an axis key lists
_KEYS = {**_SCALARS,
         **{f"features.axes.{a}": Param("", str) for a, _, _ in AXIS_TABLE},
         **{f"models.{f}.{name}": p for f, family in FAMILIES.items()
            for name, p in family.params.items()}}


@dataclass
class PipelineConfig:
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str,
                  overrides: dict | None = None) -> "PipelineConfig":
        """The checked config of the file at ``path``, with the values of
        ``overrides`` that are not None put over the file's."""
        raw = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(
                            f"{path}:{line_no}: expected key=value, got {line!r}")
                    key, _, value = line.partition("=")
                    key = key.strip()
                    if key in raw:
                        raise ConfigError(f"{path}:{line_no}: duplicate key {key}")
                    raw[key] = value.strip()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        raw.update((k, str(v)) for k, v in (overrides or {}).items()
                   if v is not None)
        cfg = cls(raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Refuse an unknown key or a value outside its type or range,
        naming the key, then build what several keys make together."""
        for key, value in self.raw.items():
            param = _KEYS.get(key)
            if param is None:
                kind = "axis" if key.startswith("features.axes.") else "config"
                raise ConfigError(f"unknown {kind} key {key!r}")
            try:
                typed = param.type(value)
            except ValueError:
                raise ConfigError(f"config key {key}={value!r} is not "
                                  f"{param.type.__name__}") from None
            if not param.ok(typed):
                raise ConfigError(
                    f"config key {key}={value!r} is out of range")
        try:
            self.window()
        except ValueError as exc:  # the month tiles do not add up
            raise ConfigError(f"config key window.total_days: {exc}") from None
        self.axes()
        self.roster()

    def _get(self, key: str):
        param = _SCALARS[key]
        return param.type(self.raw.get(key, param.default))

    @property
    def seed(self) -> int:
        return self._get("seed")

    @property
    def workers(self) -> int:
        return max(1, self._get("workers"))

    def window(self) -> StudyWindow:
        return StudyWindow(
            start_day=datetime.date.fromisoformat(
                self._get("window.start_day")),
            total_days=self._get("window.total_days"),
            train_months=self._get("window.train_months"),
            eval_months=self._get("window.eval_months"))

    def axes(self) -> AxesConfig:
        kwargs = {}
        for key, attr, _ in AXIS_TABLE:
            raw = self.raw.get(f"features.axes.{key}", "").strip()
            if raw:
                kwargs[attr] = tuple(
                    t.strip() for t in raw.split(",") if t.strip())
        return AxesConfig(
            short_call_threshold_s=self._get("features.short_call_threshold_s"),
            day_hours=(self._get("features.day_start_hour"),
                       self._get("features.day_end_hour")),
            **kwargs)

    def denominators(self) -> tuple[str, ...]:
        raw = self._get("features.denominators").strip()
        if not raw:
            return ()
        return tuple(t.strip() for t in raw.split(",") if t.strip())

    def roster(self) -> list[str]:
        families = [f.strip() for f in self._get("models.roster").split(",")
                    if f.strip()]
        for i, f in enumerate(families):
            if f not in FAMILIES:
                raise ConfigError(f"models.roster: unknown family {f!r}")
            if f in families[:i]:
                raise ConfigError(f"models.roster: family {f!r} listed twice")
        if not families:
            raise ConfigError("models.roster is empty")
        return families

    def model_params(self, family: str) -> dict:
        out = {}
        for pname, param in FAMILIES[family].params.items():
            key = f"models.{family}.{pname}"
            if key in self.raw:
                out[pname] = param.type(self.raw[key])
        return out

    def canonical(self) -> str:
        """Full resolved rendering, suitable for hashing.

        Execution knobs (workers, out_dir) are excluded: they must not
        change what the pipeline produces, so reruns at a different
        worker count hash identically.
        """
        resolved = {k: str(self._get(k)) for k in _SCALARS}
        for key, value in self.raw.items():
            if key not in _SCALARS:
                resolved[key] = value
        for knob in ("workers", "out_dir"):
            resolved.pop(knob, None)
        return "".join(f"{k}={resolved[k]}\n" for k in sorted(resolved))
