"""Append-only tensed truth records and the past-fixity audit.

Every recorded valuation pairs the tick it is about with the tick it was
asserted at; the tense (past, present, future) is derived from the two.
Records and violations are NamedTuples: they unpack, and compare equal to
plain tuples of their fields.
Ledgers are persistent values: appending returns a new ledger and never
touches the old one, so any previously held ledger stays valid. Appends
must not regress in assertion time.

A ledger is stored in columns (``_cols``): one list per field, of each
row's prop id (the object it was appended with), at, truth and asserted_at
(ticks are unbounded ints). A TensedRecord is built only when a row is read
through iteration or ``records``; the audit, ``ledger_lines`` and the
report renderer read the columns. Versions of a ledger share its columns,
and each version sees the rows of its own length. Appending to the newest
version extends the columns in place, so building a ledger of n records
costs O(n) in all. Appending to an older version is a fork: it copies the
older version's rows into new columns first, and every version keeps the
records it had.

One exception to immutability serves the runner, which appends a
reconstructed row before its bit is drawn and draws the bits of a run at
once after its last step. ``_settle_truths`` overwrites the truth of rows
in place, in the columns every version of the ledger shares. The rows it
may overwrite are those the run appended itself, and only until
``run_scenario`` returns: until then no version of the run's ledger has
left the run, a run that raises StepError is discarded with all of them,
and every version a returned report holds (the ledger, the audited
version and the step views) reads the settled truths.

The audit treats the earliest determinate truth recorded for a given
(proposition, tick) pair as fixed. A later determinate record that
disagrees is a "flip"; a later gap is a "loss". A gap that is later
refined to a determinate value is learning, not alteration, and is not
flagged.
"""

from __future__ import annotations

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

    __slots__ = ("_cols", "_size")

    def __init__(self, records: Iterable[TensedRecord] = ()):
        self._cols, self._size = ([], [], [], []), 0
        for at, prop_id, tense, truth, asserted_at in records:
            appended = record_valuation(self, at, prop_id, truth, asserted_at)
            if tense != derive_tense(at, asserted_at):
                raise ValueError(f"tense {tense!r} disagrees with at {at} and asserted_at {asserted_at}")
            self._cols, self._size = appended._cols, appended._size

    def columns(self, start: int = 0, stop: int | None = None):
        """The prop id, at, truth and asserted_at columns of the rows from
        start to stop (by default to the last row), as lists."""
        n = self._size if stop is None else min(stop, self._size)
        return [column[start:n] for column in self._cols]

    @property
    def records(self) -> tuple[TensedRecord, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        props, ats, truths, asserted = self.columns()
        return map(TensedRecord, ats, props, map(derive_tense, ats, asserted), truths, asserted)

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
    return int(value)


def record_valuation(
    ledger: Ledger,
    at: int,
    prop_id: str,
    truth: TruthValue,
    asserted_at: int,
) -> Ledger:
    """Append one valuation, deriving its tense from (at, asserted_at).

    Returns a new ledger; the input ledger is unchanged. O(1) amortised
    when the input is the newest version of its columns; an older input is
    forked by copying its rows. Raises NonMonotoneAssertion when
    asserted_at is earlier than the last record's, ValueError unless both
    ticks are non-negative integers (an int subclass is stored as a plain
    int) and TypeError unless truth is a TruthValue.
    """
    if not (type(at) is int and at >= 0):
        at = _check_tick("at", at)
    if not (type(asserted_at) is int and asserted_at >= 0):
        asserted_at = _check_tick("asserted_at", asserted_at)
    if type(truth) is not TruthValue:
        raise TypeError(f"truth must be a TruthValue, got {truth!r}")
    cols, size = ledger._cols, ledger._size
    props, ats, truths, asserted = cols
    if size and asserted_at < asserted[size - 1]:
        raise NonMonotoneAssertion(f"asserted_at {asserted_at} regresses behind {asserted[size - 1]}")
    appended = Ledger.__new__(Ledger)
    # Claim row size with one atomic list.append of a new object (a small int
    # is shared and cannot tell appends apart), kept only if it landed there:
    # of two concurrent appends to one version, one forks and never sees the
    # other's row.
    if len(asserted) == size:
        asserted.append(appended)
    if asserted[size] is appended:
        asserted[size] = asserted_at
    else:  # a fork: this version's rows, copied into new columns
        props, ats, truths, asserted = props[:size], ats[:size], truths[:size], asserted[:size]
        asserted.append(asserted_at)
        cols = (props, ats, truths, asserted)
    props.append(prop_id)
    ats.append(at)
    truths.append(truth)
    appended._cols = cols
    appended._size = size + 1
    return appended


def _settle_truths(ledger: Ledger, rows: list[int], truths: list[TruthValue]) -> None:
    """Overwrite the truth of each of rows, in ledger's columns, in place.

    Only for rows the calling run appended, before it returns (see above).
    """
    column = ledger._cols[2]
    for row, truth in zip(rows, truths, strict=True):
        column[row] = truth


def check_past_unalterability(ledger: Ledger) -> tuple[Violation, ...]:
    """Audit for altered past valuations.

    For each (prop_id, at) key, the earliest determinate truth is the
    baseline. Every later record at that key whose truth differs yields a
    violation: kind "loss" when the later truth is a gap, kind "flip" when
    it is the opposite determinate value. Keys with no determinate record,
    and gap records preceding the baseline, are skipped. Future-tense
    records are predictions, not history: one never serves as a baseline,
    so a prediction that fails to come true is not an alteration.

    A key is one int, at * width + the index of its prop id among the
    ledger's width distinct ones, so two rows share a key exactly when
    their (prop_id, at) tuples would be equal; each violation carries its
    own row's prop id.
    """
    props, ats, truths, asserted = ledger.columns()
    index = {p: i for i, p in enumerate(dict.fromkeys(props))}
    width = len(index)
    baselines: dict[int, TruthValue | None] = {}  # in first-appearance order
    found: dict[int, list[Violation]] = {}
    gap, new = TruthValue.GAP, tuple.__new__  # a NamedTuple's own __new__ is a Python-level call
    for p, at, truth, asserted_at in zip(props, ats, truths, asserted):
        key = at * width + index[p]
        baseline = baselines.get(key)
        if baseline is None:
            baselines[key] = truth if truth is not gap and at <= asserted_at else None
        elif truth is not baseline:
            kind = "loss" if truth is gap else "flip"
            found.setdefault(key, []).append(new(Violation, (p, at, baseline, truth, asserted_at, kind)))
    return tuple(v for key in baselines if key in found for v in found[key])


def ledger_lines(ledger: Ledger) -> list[str]:
    """Line-delimited serialization: tick, prop id, tense, truth, asserted tick."""
    props, ats, truths, asserted = ledger.columns()
    # The tense and str(truth), without a Python-level call per row.
    return [
        f"{at}\t{p}\t{PAST if at < a else PRESENT if at == a else FUTURE}\t{truth._value_}\t{a}"
        for p, at, truth, a in zip(props, ats, truths, asserted)
    ]
