"""A CVS-like document versioning model expressed as provenance.

Section III-A of the paper uses document versioning systems as "a
familiar framework for working with provenance metadata" and lists the
queries they support:

* show me the file as it is now, or as it was yesterday,
* show me all changes to this file since last week,
* show me when each line in this file was inserted,
* find the person who removed this error code,
* get me all files tagged "Release 1.1".

:class:`VersionedRepository` implements a small line-oriented versioning
system *on top of* provenance records: every commit of a file becomes a
provenance record (attributes: file, revision, author, commit time, tag
list; ancestor: the previous revision), and the line-level blame /
change queries are answered from the stored revisions.  Experiment E4
runs the full query list above against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.attributes import Timestamp
from repro.core.pass_store import PassStore
from repro.core.provenance import Agent, PName, ProvenanceRecord
from repro.core.tupleset import TupleSet
from repro.errors import ConfigurationError, UnknownEntityError

__all__ = ["Commit", "LineOrigin", "VersionedRepository"]


@dataclass(frozen=True)
class Commit:
    """One committed revision of one file."""

    path: str
    revision: int
    author: str
    timestamp: Timestamp
    lines: Tuple[str, ...]
    message: str = ""
    tags: Tuple[str, ...] = ()
    pname: Optional[PName] = None


@dataclass(frozen=True)
class LineOrigin:
    """Which revision and author introduced a given line ("blame")."""

    line: str
    revision: int
    author: str
    timestamp: Timestamp


class VersionedRepository:
    """A provenance-backed, line-oriented versioning system.

    Parameters
    ----------
    store:
        The PASS store revisions are recorded in; supplying a shared
        store lets versioning provenance live alongside sensor
        provenance, which is rather the point.
    name:
        Repository name, recorded in every revision's attributes.
    """

    def __init__(self, store: Optional[PassStore] = None, name: str = "repository") -> None:
        self.store = store if store is not None else PassStore()
        self.name = name
        self._history: Dict[str, List[Commit]] = {}

    # ------------------------------------------------------------------
    # Committing
    # ------------------------------------------------------------------
    def commit(
        self,
        path: str,
        lines: Sequence[str],
        author: str,
        timestamp: Timestamp,
        message: str = "",
        tags: Sequence[str] = (),
    ) -> Commit:
        """Record a new revision of ``path`` and return it."""
        if not path or not author:
            raise ConfigurationError("path and author must be non-empty")
        history = self._history.setdefault(path, [])
        revision = len(history) + 1
        previous = history[-1] if history else None

        attributes = {
            "repository": self.name,
            "file": path,
            "revision": revision,
            "author": author,
            "commit_time": timestamp,
            "message": message,
            "domain": "versioning",
        }
        if tags:
            attributes["tags"] = tuple(tags)
        agent = Agent("person", author)
        if previous is not None and previous.pname is not None:
            record = ProvenanceRecord(
                attributes, ancestors=(previous.pname,), agents=(agent,)
            )
        else:
            record = ProvenanceRecord(attributes, agents=(agent,))
        self.store.ingest(TupleSet([], record))

        commit = Commit(
            path=path,
            revision=revision,
            author=author,
            timestamp=timestamp,
            lines=tuple(lines),
            message=message,
            tags=tuple(tags),
            pname=record.pname(),
        )
        history.append(commit)
        return commit

    # ------------------------------------------------------------------
    # The Section III-A query list
    # ------------------------------------------------------------------
    def files(self) -> List[str]:
        """Every path with at least one revision."""
        return sorted(self._history)

    def head(self, path: str) -> Commit:
        """Show me the file as it is now."""
        return self._require(path)[-1]

    def as_of(self, path: str, when: Timestamp) -> Commit:
        """Show me the file as it was at ``when`` (e.g. yesterday)."""
        history = self._require(path)
        chosen = None
        for commit in history:
            if commit.timestamp.seconds <= when.seconds:
                chosen = commit
        if chosen is None:
            raise UnknownEntityError(f"{path!r} did not exist at {when}")
        return chosen

    def changes_since(self, path: str, since: Timestamp) -> List[Commit]:
        """Show me all changes to this file since ``since``."""
        return [
            commit for commit in self._require(path) if commit.timestamp.seconds > since.seconds
        ]

    def blame(self, path: str) -> List[LineOrigin]:
        """Show me when each line in this file was inserted.

        A line is attributed to the earliest revision in which it appears
        and remains present in every later revision up to head.
        """
        history = self._require(path)
        head = history[-1]
        origins: List[LineOrigin] = []
        for line in head.lines:
            introduced = head
            for commit in reversed(history):
                if line in commit.lines:
                    introduced = commit
                else:
                    break
            origins.append(
                LineOrigin(
                    line=line,
                    revision=introduced.revision,
                    author=introduced.author,
                    timestamp=introduced.timestamp,
                )
            )
        return origins

    def who_removed(self, path: str, line: str) -> Optional[Commit]:
        """Find the person who removed this (error-code) line.

        Returns the first commit in which a previously-present line is
        absent, or ``None`` when the line was never removed.
        """
        history = self._require(path)
        seen = False
        for commit in history:
            present = line in commit.lines
            if present:
                seen = True
            elif seen:
                return commit
        return None

    def tagged(self, tag: str) -> List[Commit]:
        """Get me all files tagged ``tag`` (e.g. "Release 1.1")."""
        matches = []
        for history in self._history.values():
            for commit in history:
                if tag in commit.tags:
                    matches.append(commit)
        return sorted(matches, key=lambda commit: (commit.path, commit.revision))

    # ------------------------------------------------------------------
    # Provenance-level views (cross-checks for experiment E4)
    # ------------------------------------------------------------------

    def revision_lineage(self, path: str) -> Set[PName]:
        """The ancestor closure of the head revision: the file's full history."""
        head = self.head(path)
        if head.pname is None:  # pragma: no cover - defensive
            return set()
        lineage = set(self.store.ancestors(head.pname))
        lineage.add(head.pname)
        return lineage

    def _require(self, path: str) -> List[Commit]:
        history = self._history.get(path)
        if not history:
            raise UnknownEntityError(f"unknown file {path!r}")
        return history
