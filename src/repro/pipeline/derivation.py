"""Derivation pipelines and taint analysis over them.

While :mod:`repro.pipeline.operators` defines individual derivation
steps, this module composes them:

* :class:`Pipeline` chains operators and, optionally, ingests every
  intermediate product into a :class:`~repro.core.pass_store.PassStore`,
  producing the multi-generation lineage the paper's recursive queries
  need ("there may have been several steps involved with multiple
  intermediate data sets, each with its own provenance").
* :class:`TaintAnalysis` answers the Section III-B scenario: "if a
  problem is found with the original data or with an analysis tool, all
  downstream data is tainted and must be locatable" -- given a suspect
  data set *or* a suspect agent, find every affected descendant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.pass_store import PassStore
from repro.core.provenance import PName
from repro.core.query import AgentIs
from repro.core.tupleset import TupleSet
from repro.errors import ConfigurationError
from repro.pipeline.operators import DerivationOperator

__all__ = ["Pipeline", "PipelineResult", "TaintAnalysis"]


@dataclass
class PipelineResult:
    """Everything a pipeline run produced, stage by stage."""

    stages: List[str] = field(default_factory=list)
    outputs_by_stage: Dict[str, List[TupleSet]] = field(default_factory=dict)

    def final_outputs(self) -> List[TupleSet]:
        """The tuple sets produced by the last stage."""
        if not self.stages:
            return []
        return self.outputs_by_stage[self.stages[-1]]

    def count(self) -> int:
        """Total number of derived tuple sets."""
        return sum(len(outputs) for outputs in self.outputs_by_stage.values())


class Pipeline:
    """A chain of derivation operators applied stage after stage.

    Parameters
    ----------
    operators:
        Stages in order.  Each stage is applied to every output of the
        previous stage individually; pass ``fan_in=True`` for a stage
        that should instead consume all previous outputs at once (e.g. a
        final merge).
    store:
        Optional PASS store; when given, every input and every derived
        tuple set is ingested as the pipeline runs.
    """

    def __init__(
        self,
        operators: Sequence[DerivationOperator],
        store: Optional[PassStore] = None,
        fan_in_stages: Optional[Set[str]] = None,
    ) -> None:
        if not operators:
            raise ConfigurationError("a pipeline needs at least one operator")
        self._operators = list(operators)
        self._store = store
        self._fan_in = set(fan_in_stages or ())

    def run(self, inputs: Sequence[TupleSet]) -> PipelineResult:
        """Run every stage over ``inputs`` and return all derived products."""
        if not inputs:
            raise ConfigurationError("a pipeline run needs at least one input tuple set")
        if self._store is not None:
            for tuple_set in inputs:
                self._store.ingest(tuple_set)

        result = PipelineResult()
        current: List[TupleSet] = list(inputs)
        for operator in self._operators:
            if operator.name in self._fan_in:
                produced = [operator.apply_many(current)]
            else:
                produced = [operator.apply(tuple_set) for tuple_set in current]
            if self._store is not None:
                for tuple_set in produced:
                    self._store.ingest(tuple_set)
            result.stages.append(operator.name)
            result.outputs_by_stage[operator.name] = produced
            current = produced
        return result


class TaintAnalysis:
    """Finds data affected by a bad input or a bad tool."""

    def __init__(self, store: PassStore) -> None:
        self._store = store

    def tainted_by_data(self, suspect: PName, include_suspect: bool = True) -> Set[PName]:
        """Every data set derived (transitively) from ``suspect``."""
        tainted = set(self._store.descendants(suspect))
        if include_suspect:
            tainted.add(suspect)
        return tainted

    def tainted_by_agent(
        self,
        agent_name: str,
        kind: Optional[str] = None,
        version: Optional[str] = None,
    ) -> Set[PName]:
        """Every data set produced by the agent, plus everything derived from those.

        This is the "optimizer bug in gcc 3.3.3 invalidates results"
        scenario: the direct outputs of the tool and their entire
        descendant closure are affected.
        """
        produced = self._store.query(AgentIs(agent_name, kind=kind, version=version))
        tainted: Set[PName] = set(produced)
        for pname in produced:
            tainted |= self._store.descendants(pname)
        return tainted
