"""Declarative alert rules evaluated over the time-series store.

Rules load from JSON (a checked-in file, ``repro serve --alert-rules``)
and come in two kinds:

**threshold** -- compare one statistic of one series against a bound::

    {"name": "query-p99-high", "kind": "threshold",
     "series": "daemon.default.query.ms", "stat": "p99",
     "op": ">", "value": 250.0, "window_s": 60, "for_s": 10}

``stat`` is ``latest`` (gauge/counter sample), ``rate`` (counter,
per-second over the window), or ``p50``/``p95``/``p99``/``mean``/
``count`` (histogram, merged over the window).

**burn_rate** -- classic SLO burn: how many times faster than budget is
the error ratio burning::

    {"name": "publish-slo-burn", "kind": "burn_rate",
     "errors": "daemon.default.publish.errors",
     "total": "daemon.default.publish.calls",
     "objective": 0.999, "threshold": 10.0, "window_s": 300}

With objective 99.9% the error budget is 0.1%; an error ratio of 1%
burns at 10x and trips a threshold of 10.

The :class:`AlertEngine` runs a tiny state machine per rule --
``ok -> pending -> firing -> ok`` (``pending`` holds until the
condition has been continuously true for ``for_s``) -- on every sampler
tick, against wall time in a daemon and against the virtual clock in a
sim run: the same rule file evaluates against both, because both emit
the same series schema.  Transitions log on ``repro.obs.alerts`` and
accumulate in a bounded ring served by ``client.alerts()`` /
``repro alerts``.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.obs.timeseries import TimeSeriesStore

__all__ = ["AlertEngine", "AlertRule", "load_rules"]

logger = logging.getLogger("repro.obs.alerts")

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

_HISTOGRAM_STATS = {"p50": 0.50, "p95": 0.95, "p99": 0.99}


@dataclass(frozen=True)
class AlertRule:
    """One validated rule; built via :func:`load_rules` or directly."""

    name: str
    kind: str  # "threshold" | "burn_rate"
    window_s: float = 60.0
    for_s: float = 0.0
    # threshold fields
    series: Optional[str] = None
    stat: str = "latest"
    op: str = ">"
    value: float = 0.0
    # burn-rate fields
    errors: Optional[str] = None
    total: Optional[str] = None
    objective: float = 0.999
    threshold: float = 1.0

    def describe(self) -> dict:
        if self.kind == "threshold":
            condition = f"{self.stat}({self.series}) {self.op} {self.value}"
        else:
            condition = (
                f"burn({self.errors}/{self.total}, slo={self.objective})"
                f" > {self.threshold}"
            )
        return {
            "name": self.name,
            "kind": self.kind,
            "condition": condition,
            "window_s": self.window_s,
            "for_s": self.for_s,
        }


def _build_rule(raw) -> AlertRule:
    if isinstance(raw, AlertRule):
        return raw
    if not isinstance(raw, dict):
        raise ConfigurationError(f"alert rule must be an object, got {type(raw).__name__}")
    name = raw.get("name")
    kind = raw.get("kind")
    if not name or not isinstance(name, str):
        raise ConfigurationError("alert rule needs a string 'name'")
    if kind not in ("threshold", "burn_rate"):
        raise ConfigurationError(f"alert rule {name!r}: unknown kind {kind!r}")
    window_s = float(raw.get("window_s", 60.0))
    for_s = float(raw.get("for_s", 0.0))
    if window_s <= 0:
        raise ConfigurationError(f"alert rule {name!r}: window_s must be positive")
    if kind == "threshold":
        series = raw.get("series")
        if not series or not isinstance(series, str):
            raise ConfigurationError(f"alert rule {name!r}: threshold needs 'series'")
        stat = raw.get("stat", "latest")
        if stat not in ("latest", "rate", "mean", "count", *_HISTOGRAM_STATS):
            raise ConfigurationError(f"alert rule {name!r}: unknown stat {stat!r}")
        op = raw.get("op", ">")
        if op not in _OPS:
            raise ConfigurationError(f"alert rule {name!r}: unknown op {op!r}")
        return AlertRule(
            name=name, kind=kind, window_s=window_s, for_s=for_s,
            series=series, stat=stat, op=op, value=float(raw.get("value", 0.0)),
        )
    errors = raw.get("errors")
    total = raw.get("total")
    if not errors or not total:
        raise ConfigurationError(f"alert rule {name!r}: burn_rate needs 'errors' and 'total'")
    objective = float(raw.get("objective", 0.999))
    if not 0.0 < objective < 1.0:
        raise ConfigurationError(f"alert rule {name!r}: objective must be in (0, 1)")
    return AlertRule(
        name=name, kind=kind, window_s=window_s, for_s=for_s,
        errors=str(errors), total=str(total),
        objective=objective, threshold=float(raw.get("threshold", 1.0)),
    )


def load_rules(source: Union[str, Sequence[dict]]) -> List[AlertRule]:
    """Rules from a JSON file path or an already-parsed list of dicts."""
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                parsed = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot read alert rules {source!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"alert rules {source!r} are not valid JSON: {exc}") from exc
    else:
        parsed = source
    if isinstance(parsed, dict):
        parsed = parsed.get("rules", [])
    else:
        parsed = list(parsed)
    if not isinstance(parsed, list):
        raise ConfigurationError("alert rules must be a JSON list (or {'rules': [...]})")
    rules = [_build_rule(raw) for raw in parsed]
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        raise ConfigurationError("alert rule names must be unique")
    return rules


@dataclass
class _RuleState:
    status: str = "ok"  # ok | pending | firing
    since: Optional[float] = None  # when the condition first held
    changed_at: Optional[float] = None
    last_value: Optional[float] = None


class AlertEngine:
    """Evaluates rules against one store on every tick it is handed.

    Clock-agnostic like the store: :meth:`evaluate` takes ``now`` in the
    same timebase the series were written with.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        rules: Sequence[AlertRule],
        transition_capacity: int = 256,
    ) -> None:
        self.store = store
        self.rules = list(rules)
        self._states: Dict[str, _RuleState] = {r.name: _RuleState() for r in self.rules}
        self.transitions: deque = deque(maxlen=transition_capacity)

    # -- evaluation ------------------------------------------------------
    def _measure(self, rule: AlertRule, now: float) -> Optional[float]:
        if rule.kind == "burn_rate":
            error_rate = self.store.rate(rule.errors, window_s=rule.window_s, now=now)
            total_rate = self.store.rate(rule.total, window_s=rule.window_s, now=now)
            if error_rate is None or not total_rate:
                return None
            error_ratio = min(1.0, error_rate / total_rate)
            budget = 1.0 - rule.objective
            return error_ratio / budget
        if rule.stat == "latest":
            latest = self.store.latest(rule.series)
            if latest is None or not isinstance(latest[1], (int, float)):
                return None
            return float(latest[1])
        if rule.stat == "rate":
            return self.store.rate(rule.series, window_s=rule.window_s, now=now)
        state = self.store.window_state(rule.series, window_s=rule.window_s, now=now)
        if state is None or state.empty:
            return None
        if rule.stat == "mean":
            return state.total / state.count
        if rule.stat == "count":
            return float(state.count)
        return state.quantile(_HISTOGRAM_STATS[rule.stat])

    def _condition(self, rule: AlertRule, value: Optional[float]) -> bool:
        if value is None:
            return False
        if rule.kind == "burn_rate":
            return value > rule.threshold
        return _OPS[rule.op](value, rule.value)

    def _transition(self, rule: AlertRule, state: _RuleState, to: str, now: float) -> None:
        event = {
            "t": now,
            "rule": rule.name,
            "from": state.status,
            "to": to,
            "value": state.last_value,
        }
        self.transitions.append(event)
        level = logging.WARNING if to == "firing" else logging.INFO
        logger.log(
            level,
            "alert %s: %s -> %s (value=%s)",
            rule.name, state.status, to, state.last_value,
        )
        state.status = to
        state.changed_at = now

    def evaluate(self, now: float) -> None:
        """One tick: measure every rule, advance its state machine."""
        for rule in self.rules:
            state = self._states[rule.name]
            value = self._measure(rule, now)
            state.last_value = value
            if self._condition(rule, value):
                if state.since is None:
                    state.since = now
                if state.status != "firing":
                    held = now - state.since
                    if held >= rule.for_s:
                        self._transition(rule, state, "firing", now)
                    elif state.status == "ok":
                        self._transition(rule, state, "pending", now)
            else:
                state.since = None
                if state.status == "firing":
                    self._transition(rule, state, "resolved", now)
                    state.status = "ok"
                elif state.status == "pending":
                    self._transition(rule, state, "ok", now)

    # -- reading ---------------------------------------------------------
    def firing(self) -> List[str]:
        return sorted(
            name for name, state in self._states.items() if state.status == "firing"
        )

    def snapshot(self) -> dict:
        """The stable alerts shape served over the wire and by the CLI."""
        rules = []
        for rule in self.rules:
            state = self._states[rule.name]
            entry = rule.describe()
            entry.update(
                {
                    "status": state.status,
                    "since": state.since,
                    "changed_at": state.changed_at,
                    "value": state.last_value,
                }
            )
            rules.append(entry)
        return {
            "rules": rules,
            "firing": self.firing(),
            "transitions": list(self.transitions),
        }
