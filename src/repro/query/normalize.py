"""Predicate normalization: the planner's front door.

Queries arrive in whatever shape the caller composed -- DSL sugar,
nested conjunctions, double negations.  The planner wants one canonical
shape so that (a) sargable conjuncts are easy to extract and (b) queries
that differ only in their constants report one shape.

:func:`normalize` applies the classic rewrites:

* ``Not`` is pushed inward (De Morgan; double negation cancels),
* nested ``And``/``Or`` are flattened into one n-ary node,
* duplicate sub-predicates are dropped (order-preserving),
* trivial ``TRUE`` conjuncts disappear,
* single-child ``And``/``Or`` collapse to the child.

:func:`shape_key` reduces a (normalized) predicate to a string that
keeps structure, predicate types and attribute names but drops the
constants -- two time-window queries over different windows share a
shape (``Explain.shape``), which groups the paper's sliding-window
workloads in explain output and slow-query logs.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.query import (
    TRUE,
    AgentIs,
    AncestorOf,
    And,
    AnnotationMatches,
    AttributeContains,
    AttributeEquals,
    AttributeExists,
    AttributeIn,
    AttributeRange,
    DerivedFrom,
    IsRaw,
    NearLocation,
    Not,
    Or,
    Predicate,
    TimeWindowOverlaps,
)

__all__ = ["normalize", "shape_key"]


def normalize(predicate: Predicate) -> Predicate:
    """Rewrite ``predicate`` into the canonical planner shape."""
    return _normalize(predicate, negated=False)


def _normalize(predicate: Predicate, negated: bool) -> Predicate:
    if isinstance(predicate, Not):
        return _normalize(predicate.part, not negated)
    if isinstance(predicate, (And, Or)):
        # De Morgan: a negated And becomes an Or of negated parts (and
        # vice versa), so negation only ever rests on the leaves.
        flip = isinstance(predicate, And) == negated
        parts: List[Predicate] = []
        for part in predicate.parts:
            lowered = _normalize(part, negated)
            same_shape = isinstance(lowered, Or) if flip else isinstance(lowered, And)
            if same_shape:
                parts.extend(lowered.parts)  # type: ignore[union-attr]
            else:
                parts.append(lowered)
        kept: List[Predicate] = []
        for part in parts:
            if part is TRUE:
                if flip:
                    return TRUE  # a TRUE branch makes the disjunction trivial
                continue  # TRUE conjuncts never constrain anything
            # (`in` compares with ==, which merges n == 1 with n == True and
            # n == 1.0; the store tells them apart, and so do their reprs)
            if part not in kept or repr(part) not in map(repr, kept):
                kept.append(part)
        if not kept:
            return TRUE
        if len(kept) == 1:
            return kept[0]
        return Or(tuple(kept)) if flip else And(tuple(kept))
    if negated:
        return Not(predicate)
    return predicate


def shape_key(predicate: Predicate) -> str:
    """A value-free structural key (``Explain.shape``).

    Commutative children are keyed in sorted order so ``a=1 & b=2`` and
    ``b=2 & a=1`` share one shape.
    """
    keyer = _SHAPE_OF.get(type(predicate))
    if keyer is None:
        # A subclass keeps its parent's key; any other predicate class is
        # keyed by its type name.
        for base in type(predicate).__mro__[1:]:
            if base in _SHAPE_OF:
                return _SHAPE_OF[base](predicate)
        return f"other[{type(predicate).__name__}]"
    return keyer(predicate)


def _commutative_key(word: str) -> Callable[[Predicate], str]:
    return lambda predicate: f"{word}(" + ",".join(sorted(map(shape_key, predicate.parts))) + ")"


def _range_key(predicate: AttributeRange) -> str:
    bounds = (
        f"{'l' if predicate.low is not None else ''}"
        f"{'L' if predicate.include_low else ''}"
        f"{'h' if predicate.high is not None else ''}"
        f"{'H' if predicate.include_high else ''}"
    )
    return f"range[{predicate.name}:{bounds}]"


#: one lookup on ``type(predicate)``: an ``isinstance`` chain over these
#: (``ABCMeta`` classes, so each test runs in Python) was 1-3.5 us a key
_SHAPE_OF: Dict[type, Callable[[Predicate], str]] = {
    Not: lambda p: f"not({shape_key(p.part)})",
    And: _commutative_key("and"),
    Or: _commutative_key("or"),
    AttributeEquals: lambda p: f"eq[{p.name}]",
    AttributeRange: _range_key,
    AttributeIn: lambda p: f"in[{p.name}:{len(p.values)}]",
    AttributeContains: lambda p: f"contains[{p.name}]",
    AttributeExists: lambda p: f"exists[{p.name}]",
    NearLocation: lambda p: f"near[{p.name}]",
    TimeWindowOverlaps: lambda p: f"window[{p.start_attr}:{p.end_attr}]",
    AgentIs: lambda p: "agent",
    AnnotationMatches: lambda p: f"annotation[{p.key}]",
    IsRaw: lambda p: f"raw[{p.raw}]",
    DerivedFrom: lambda p: "derived-from",
    AncestorOf: lambda p: "ancestor-of",
    type(TRUE): lambda p: "true",
}
