"""Access-control policies over provenance-named data.

Section V: "Security is essential as well, as much of the data collected
in sensor networks (e.g., medical data) is private ...  How do
regulatory moves like HIPAA affect the situation?  And how do we provide
strong guarantees that privacy policies will be enforced?"

The policy model is deliberately simple and auditable:

* a :class:`Principal` has a name, a role and a set of granted purposes,
* an :class:`AccessRule` matches data sets by attribute predicate and
  states which roles/purposes may read their readings, and whether only
  aggregated (not raw) access is allowed,
* a :class:`PolicyEngine` evaluates the rules (first match wins, default
  deny for protected domains, default allow otherwise) and keeps an
  audit log -- the paper's "strong guarantees" reduced to an enforceable
  and inspectable core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.core.provenance import PName, ProvenanceRecord
from repro.core.query import TRUE, Predicate
from repro.errors import PolicyError

__all__ = ["Principal", "AccessRule", "AccessDecision", "PolicyEngine"]


@dataclass(frozen=True)
class Principal:
    """Someone (or something) asking to read data."""

    name: str
    role: str
    purposes: frozenset = frozenset()

    def __post_init__(self) -> None:
        if not self.name or not self.role:
            raise PolicyError("principal name and role must be non-empty")
        object.__setattr__(self, "purposes", frozenset(self.purposes))


@dataclass(frozen=True)
class AccessRule:
    """One policy rule: who may read which data sets, and how.

    Attributes
    ----------
    name:
        Rule identifier (shows up in audit entries).
    applies_to:
        Predicate selecting the data sets the rule governs.
    allowed_roles / allowed_purposes:
        A principal must match one allowed role *and*, when
        ``allowed_purposes`` is non-empty, claim one allowed purpose.
    aggregate_only:
        When True the rule permits only aggregated access -- raw readings
        stay off-limits, per the paper's "much of this data is valuable
        even when aggregated to preserve privacy".
    allow:
        Whether matching grants or denies access (deny rules make HIPAA
        style carve-outs expressible).
    """

    name: str
    applies_to: Predicate = TRUE
    allowed_roles: frozenset = frozenset()
    allowed_purposes: frozenset = frozenset()
    aggregate_only: bool = False
    allow: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("rule name must be non-empty")
        object.__setattr__(self, "allowed_roles", frozenset(self.allowed_roles))
        object.__setattr__(self, "allowed_purposes", frozenset(self.allowed_purposes))

    def governs(self, pname: PName, record: ProvenanceRecord) -> bool:
        """Does this rule apply to the data set at all?"""
        return self.applies_to.matches(pname, record, None)

    def permits(self, principal: Principal) -> bool:
        """Does the principal satisfy the rule's role/purpose requirements?"""
        if self.allowed_roles and principal.role not in self.allowed_roles:
            return False
        if self.allowed_purposes and not (self.allowed_purposes & principal.purposes):
            return False
        return True


@dataclass(frozen=True)
class AccessDecision:
    """The outcome of a policy check."""

    allowed: bool
    aggregate_only: bool
    rule: Optional[str]
    reason: str


@dataclass
class _AuditEntry:
    principal: str
    pname: str
    decision: AccessDecision


class PolicyEngine:
    """Evaluates access rules and records an audit trail.

    Parameters
    ----------
    rules:
        Checked in order; the first rule that governs the data set and
        whose role/purpose requirements the principal meets decides.
    protected_domains:
        Values of the ``domain`` attribute that are deny-by-default when
        no rule grants access (e.g. ``{"medical"}``).
    """

    def __init__(
        self,
        rules: Sequence[AccessRule] = (),
        protected_domains: Optional[Set[str]] = None,
    ) -> None:
        self._rules: List[AccessRule] = list(rules)
        self._protected = set(protected_domains or ())
        self._audit: List[_AuditEntry] = []

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def check(
        self, principal: Principal, pname: PName, record: ProvenanceRecord
    ) -> AccessDecision:
        """Decide whether ``principal`` may read the data set's readings."""
        decision = self._decide(principal, pname, record)
        self._audit.append(_AuditEntry(principal.name, pname.digest, decision))
        return decision

    def _decide(
        self, principal: Principal, pname: PName, record: ProvenanceRecord
    ) -> AccessDecision:
        for rule in self._rules:
            if not rule.governs(pname, record):
                continue
            if not rule.permits(principal):
                continue
            if not rule.allow:
                return AccessDecision(False, False, rule.name, "matched deny rule")
            return AccessDecision(
                True, rule.aggregate_only, rule.name, "matched allow rule"
            )
        domain = record.get("domain")
        if isinstance(domain, str) and domain in self._protected:
            return AccessDecision(False, False, None, f"default deny for protected domain {domain!r}")
        return AccessDecision(True, False, None, "default allow")

    def enforce(self, principal: Principal, pname: PName, record: ProvenanceRecord) -> AccessDecision:
        """Like :meth:`check` but raises :class:`~repro.errors.PolicyError` on denial."""
        decision = self.check(principal, pname, record)
        if not decision.allowed:
            raise PolicyError(
                f"{principal.name} may not read {pname.short}: {decision.reason}"
            )
        return decision

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit_log(self) -> List[dict]:
        """Every decision made so far, oldest first."""
        return [
            {
                "principal": entry.principal,
                "pname": entry.pname[:12],
                "allowed": entry.decision.allowed,
                "aggregate_only": entry.decision.aggregate_only,
                "rule": entry.decision.rule,
                "reason": entry.decision.reason,
            }
            for entry in self._audit
        ]

    def denials(self) -> int:
        """How many checks were denied."""
        return sum(1 for entry in self._audit if not entry.decision.allowed)
