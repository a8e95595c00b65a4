"""Append-only tensed truth records and the past-fixity audit.

Every recorded valuation pairs the tick it is about with the tick it was
asserted at; the tense (past, present, future) is derived from the two.
Records and violations are NamedTuples: they unpack, and compare equal to
plain tuples of their fields.
Ledgers are persistent values: appending returns a new ledger and never
touches the old one, so any previously held ledger stays valid. Appends
must not regress in assertion time.

Versions of a ledger share one list of records, and each version sees the
prefix of its own length. Appending to the newest version extends that
list in place, so building a ledger of n records costs O(n) in all.
Appending to an older version is a fork: it copies the older version's
prefix into a new list first, and every version keeps the records it had.

The audit treats the earliest determinate truth recorded for a given
(proposition, tick) pair as fixed. A later determinate record that
disagrees is a "flip"; a later gap is a "loss". A gap that is later
refined to a determinate value is learning, not alteration, and is not
flagged.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple

from .errors import NonMonotoneAssertion
from .lattice import TruthValue

PAST = "past"
PRESENT = "present"
FUTURE = "future"


def derive_tense(at: int, asserted_at: int) -> str:
    if at < asserted_at:
        return PAST
    if at == asserted_at:
        return PRESENT
    return FUTURE


class TensedRecord(NamedTuple):
    at: int
    prop_id: str
    tense: str
    truth: TruthValue
    asserted_at: int


class Ledger:
    """An immutable sequence of tensed records; equal when the records are."""

    __slots__ = ("_log", "_size")

    def __init__(self, records: Iterable[TensedRecord] = ()):
        self._log = list(records)
        self._size = len(self._log)

    @property
    def records(self) -> tuple[TensedRecord, ...]:
        return tuple(islice(self._log, self._size))

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return islice(self._log, self._size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ledger):
            return NotImplemented
        return self._size == other._size and self.records == other.records

    def __hash__(self) -> int:
        return hash(self.records)

    def __repr__(self) -> str:
        return f"Ledger(records={self.records!r})"


class Violation(NamedTuple):
    """A past valuation that failed to stay fixed."""

    prop_id: str
    at: int
    earlier_truth: TruthValue
    later_truth: TruthValue
    later_asserted_at: int
    kind: str  # "flip" for determinate-to-determinate, "loss" for determinate-to-gap


def _check_tick(name: str, value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def record_valuation(
    ledger: Ledger,
    at: int,
    prop_id: str,
    truth: TruthValue,
    asserted_at: int,
) -> Ledger:
    """Append one valuation, deriving its tense from (at, asserted_at).

    Returns a new ledger; the input ledger is unchanged. O(1) amortised
    when the input is the newest version of its list; an older input is
    forked by copying its records. Raises NonMonotoneAssertion when
    asserted_at is earlier than the last record's, ValueError unless both
    ticks are non-negative integers and TypeError unless truth is a
    TruthValue.
    """
    if not (type(at) is int and at >= 0):
        _check_tick("at", at)
    if not (type(asserted_at) is int and asserted_at >= 0):
        _check_tick("asserted_at", asserted_at)
    if type(truth) is not TruthValue:
        raise TypeError(f"truth must be a TruthValue, got {truth!r}")
    log, size = ledger._log, ledger._size
    if size and asserted_at < log[size - 1].asserted_at:
        raise NonMonotoneAssertion(
            f"asserted_at {asserted_at} regresses behind {log[size - 1].asserted_at}"
        )
    rec = TensedRecord(at, prop_id, derive_tense(at, asserted_at), truth, asserted_at)
    # Extend the shared list only when this is its newest version, and keep
    # the extension only if rec landed right after this version's prefix:
    # list.append is atomic, so a concurrent append to the same version
    # makes one of the two fork instead of seeing the other's record.
    if len(log) == size:
        log.append(rec)
    if log[size] is not rec:
        log = log[:size]
        log.append(rec)
    appended = Ledger.__new__(Ledger)
    appended._log = log
    appended._size = size + 1
    return appended


def check_past_unalterability(ledger: Ledger) -> tuple[Violation, ...]:
    """Audit for altered past valuations.

    For each (prop_id, at) key, the earliest determinate truth is the
    baseline. Every later record at that key whose truth differs yields a
    violation: kind "loss" when the later truth is a gap, kind "flip" when
    it is the opposite determinate value. Keys with no determinate record,
    and gap records preceding the baseline, are skipped. Future-tense
    records are predictions, not history: one never serves as a baseline,
    so a prediction that fails to come true is not an alteration.
    """
    baselines: dict[tuple[str, int], TruthValue | None] = {}  # in first-appearance order
    found: dict[tuple[str, int], list[Violation]] = {}
    gap = TruthValue.GAP
    for at, prop_id, tense, truth, asserted_at in ledger:
        key = (prop_id, at)
        baseline = baselines.get(key)
        if baseline is None:
            baselines[key] = truth if truth is not gap and tense != FUTURE else None
        elif truth is not baseline:
            kind = "loss" if truth is gap else "flip"
            found.setdefault(key, []).append(Violation(prop_id, at, baseline, truth, asserted_at, kind))
    return tuple(v for key in baselines if key in found for v in found[key])


def tense_view(ledger: Ledger, now: int) -> tuple[tuple[str, int, str, TruthValue], ...]:
    """Relabel every record's tense relative to the supplied present moment.

    Pure view: recorded truths come back unchanged and the ledger itself is
    untouched."""
    _check_tick("now", now)
    return tuple(
        (rec.prop_id, rec.at, derive_tense(rec.at, now), rec.truth) for rec in ledger
    )


def ledger_lines(ledger: Ledger) -> list[str]:
    """Line-delimited serialization: tick, prop id, tense, truth, asserted tick."""
    # truth._value_ is str(truth), read without two Python-level calls.
    return [
        f"{at}\t{prop_id}\t{tense}\t{truth._value_}\t{asserted_at}"
        for at, prop_id, tense, truth, asserted_at in ledger
    ]
