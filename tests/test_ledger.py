import sys
import threading
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from svq import (
    Ledger,
    NonMonotoneAssertion,
    TensedRecord,
    TruthValue,
    Violation,
    check_past_unalterability,
    derive_tense,
    ledger_lines,
    record_valuation,
)

T, F, G = TruthValue.TRUE, TruthValue.FALSE, TruthValue.GAP


def test_present_tense_record():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    assert len(led) == 1
    assert led.records[0].tense == "present"
    assert led.records[0].truth is T


def test_past_tense_reassertion():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    led = record_valuation(led, 0, "Zplus", G, 5)
    assert len(led) == 2
    assert led.records[1].tense == "past"


def test_future_tense_record():
    led = record_valuation(Ledger(), 3, "Zplus", T, 1)
    assert led.records[0].tense == "future"


def test_non_monotone_assertion_rejected():
    led = record_valuation(Ledger(), 0, "Zplus", T, 5)
    with pytest.raises(NonMonotoneAssertion):
        record_valuation(led, 0, "Zplus", T, 4)


def test_negative_ticks_rejected():
    with pytest.raises(ValueError):
        record_valuation(Ledger(), -1, "Zplus", T, 0)


def test_append_returns_new_value_and_preserves_old():
    first = record_valuation(Ledger(), 0, "Zplus", T, 0)
    snapshot = first.records
    second = record_valuation(first, 1, "Zplus", F, 1)
    assert first.records == snapshot
    assert len(first) == 1
    assert len(second) == 2
    assert second.records[:1] == snapshot


def test_flip_violation():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    led = record_valuation(led, 0, "Zplus", F, 7)
    found = check_past_unalterability(led)
    assert len(found) == 1
    v = found[0]
    assert v.kind == "flip"
    assert v.earlier_truth is T and v.later_truth is F
    assert v.later_asserted_at == 7


def test_loss_violation():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    led = record_valuation(led, 0, "Zplus", G, 7)
    found = check_past_unalterability(led)
    assert len(found) == 1
    assert found[0].kind == "loss"


def test_consistent_history_is_clean():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    led = record_valuation(led, 0, "Zplus", T, 7)
    assert check_past_unalterability(led) == ()


def test_gap_refinement_is_not_a_violation():
    led = record_valuation(Ledger(), 0, "Xplus", G, 0)
    led = record_valuation(led, 0, "Xplus", T, 7)
    assert check_past_unalterability(led) == ()


def test_gap_only_key_is_skipped():
    led = record_valuation(Ledger(), 0, "Xplus", G, 0)
    led = record_valuation(led, 0, "Xplus", G, 7)
    assert check_past_unalterability(led) == ()


def test_distinct_keys_do_not_interact():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    led = record_valuation(led, 1, "Zplus", F, 1)
    assert check_past_unalterability(led) == ()


def test_failed_prediction_is_not_audited():
    led = record_valuation(Ledger(), 5, "Zplus", T, 0)  # future-tense prediction
    led = record_valuation(led, 5, "Zplus", F, 5)  # the present disagrees
    assert check_past_unalterability(led) == ()


def test_present_after_prediction_becomes_the_baseline():
    led = record_valuation(Ledger(), 5, "Zplus", T, 0)
    led = record_valuation(led, 5, "Zplus", F, 5)
    led = record_valuation(led, 5, "Zplus", T, 9)  # past-tense flip against the present
    found = check_past_unalterability(led)
    assert len(found) == 1
    assert found[0].kind == "flip"
    assert found[0].earlier_truth is F and found[0].later_truth is T


def test_every_divergent_later_record_is_flagged():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    led = record_valuation(led, 0, "Zplus", G, 1)
    led = record_valuation(led, 0, "Zplus", F, 2)
    kinds = [v.kind for v in check_past_unalterability(led)]
    assert kinds == ["loss", "flip"]


def test_ledger_lines_format():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    led = record_valuation(led, 0, "Zplus", G, 4)
    assert ledger_lines(led) == [
        "0\tZplus\tpresent\t1\t0",
        "0\tZplus\tpast\t0/0\t4",
    ]


def test_derive_tense():
    assert derive_tense(0, 1) == "past"
    assert derive_tense(1, 1) == "present"
    assert derive_tense(2, 1) == "future"


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.sampled_from(("P", "Q")),
            st.sampled_from((T, F, G)),
            st.integers(0, 5),
        ),
        max_size=12,
    )
)
def test_append_only_under_random_sequences(entries):
    entries = sorted(entries, key=lambda e: e[3])
    ledgers = [Ledger()]
    for at, pid, truth, asserted in entries:
        ledgers.append(record_valuation(ledgers[-1], at, pid, truth, asserted))
    for i, led in enumerate(ledgers):
        assert len(led) == i
        assert ledgers[-1].records[:i] == led.records
    # auditing never mutates
    before = ledgers[-1].records
    check_past_unalterability(ledgers[-1])
    assert ledgers[-1].records == before


def test_ledger_attributes_cannot_be_set():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    with pytest.raises(AttributeError):
        led.records = ()
    with pytest.raises(AttributeError):
        led.extra = 1


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.sampled_from(("P", "Q")),
            st.sampled_from((T, F, G)),
            st.integers(0, 5),
        ),
        max_size=12,
    ),
    st.data(),
)
def test_appending_to_an_older_ledger_forks(entries, data):
    entries = sorted(entries, key=lambda e: e[3])
    ledgers = [Ledger()]
    for at, pid, truth, asserted in entries:
        ledgers.append(record_valuation(ledgers[-1], at, pid, truth, asserted))
    snapshots = [led.records for led in ledgers]
    older = ledgers[data.draw(st.integers(0, len(ledgers) - 1))]
    tick = max((rec.asserted_at for rec in older), default=0)
    fork = record_valuation(older, 0, "R", T, tick)
    again = record_valuation(older, 0, "R", data.draw(st.sampled_from((T, F))), tick)
    for led, records in zip(ledgers, snapshots):
        assert led.records == records
        assert len(led) == len(records)
    assert fork.records[:-1] == again.records[:-1] == older.records
    assert fork.records[-1].truth is T
    # == and hash follow the records, whatever list holds them
    assert Ledger(fork.records) == fork
    assert hash(Ledger(fork.records)) == hash(fork)
    assert (fork == again) == (fork.records == again.records)
    assert (older == ledgers[-1]) == (older.records == ledgers[-1].records)
    assert fork != older


def test_records_and_violations_are_named_tuples():
    led = record_valuation(Ledger(), 0, "Zplus", T, 0)
    led = record_valuation(led, 0, "Zplus", G, 4)
    assert led.records == ((0, "Zplus", "present", T, 0), (0, "Zplus", "past", G, 4))
    at, prop_id, tense, truth, asserted_at = led.records[1]
    assert led.records[1] == TensedRecord(at, prop_id, tense, truth, asserted_at)
    assert check_past_unalterability(led) == (("Zplus", 0, T, G, 4, "loss"),)
    assert Violation._fields == (
        "prop_id", "at", "earlier_truth", "later_truth", "later_asserted_at", "kind"
    )


@pytest.mark.parametrize("tick", [-1, True, 1.0, "1"])
def test_record_valuation_rejects_a_tick_that_is_not_a_non_negative_int(tick):
    for at, asserted_at, name in ((tick, 0, "at"), (0, tick, "asserted_at")):
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got"):
            record_valuation(Ledger(), at, "Zplus", T, asserted_at)


def test_record_valuation_rejects_a_truth_that_is_not_a_truth_value():
    # The audit compares truths by identity; "1" used to be appended and
    # then crash the audit.
    with pytest.raises(TypeError, match="^truth must be a TruthValue"):
        record_valuation(Ledger(), 0, "Zplus", "1", 0)


# The audit as it was before it became one pass over the ledger, kept as
# its oracle.


def reference_check_past_unalterability(ledger):
    groups = {}
    for rec in ledger:
        groups.setdefault((rec.prop_id, rec.at), []).append(rec)
    violations = []
    for (prop_id, at), recs in groups.items():
        baseline_index = next(
            (i for i, r in enumerate(recs) if r.truth.is_determinate and r.tense != "future"),
            None,
        )
        if baseline_index is None:
            continue
        baseline = recs[baseline_index].truth
        for later in recs[baseline_index + 1:]:
            if later.truth is baseline:
                continue
            kind = "loss" if later.truth is TruthValue.GAP else "flip"
            violations.append(
                Violation(prop_id, at, baseline, later.truth, later.asserted_at, kind)
            )
    return tuple(violations)


# The audit as it was before it keyed each row by one int, keyed by
# (prop id, at) tuples, kept as the oracle of the int-keyed one.


def tuple_keyed_check_past_unalterability(ledger):
    props, ats, truths, asserted = ledger.columns()
    baselines = {}
    found = {}
    for p, at, truth, asserted_at in zip(props, ats, truths, asserted):
        key = (p, at)
        baseline = baselines.get(key)
        if baseline is None:
            baselines[key] = truth if truth is not G and at <= asserted_at else None
        elif truth is not baseline:
            kind = "loss" if truth is G else "flip"
            found.setdefault(key, []).append(Violation(p, at, baseline, truth, asserted_at, kind))
    return tuple(v for key in baselines if key in found for v in found[key])


# Prop ids that compare equal across types (1, 1.0 and True) share a key; two
# distinct nan objects do not, as a nan is equal only to itself.
NAN_A, NAN_B = float("nan"), float("nan")
ticks = st.one_of(st.integers(0, 5), st.integers(2**64, 2**64 + 2))
ledger_entries = st.lists(
    st.tuples(ticks, st.sampled_from(("P", "Q", 1, 1.0, True, NAN_A, NAN_B)), st.sampled_from((T, F, G)), ticks),
    max_size=30,
)


@given(ledger_entries, st.data())
def test_audit_matches_the_reference_on_newest_and_forked_ledgers(entries, data):
    # at > asserted_at draws future-tense records as well as past and present.
    entries = sorted(entries, key=lambda e: e[3])
    ledgers = [Ledger()]
    for at, pid, truth, asserted in entries:
        ledgers.append(record_valuation(ledgers[-1], at, pid, truth, asserted))
    older = ledgers[data.draw(st.integers(0, len(ledgers) - 1))]
    tick = max((rec.asserted_at for rec in older), default=0)
    fork = older
    for at, pid, truth in data.draw(
        st.lists(st.tuples(ticks, st.sampled_from(("P", "R", 1.0, NAN_B)), st.sampled_from((T, F, G))), max_size=6)
    ):
        fork = record_valuation(fork, at, pid, truth, tick)
    for led in (ledgers[-1], older, fork):
        found = check_past_unalterability(led)
        want = tuple_keyed_check_past_unalterability(led)
        assert found == want == reference_check_past_unalterability(led)
        # Each violation carries its own row's prop id object, as the tuple-keyed audit does.
        assert all(v.prop_id is w.prop_id for v, w in zip(found, want))
        assert all(type(v) is Violation for v in found)


# The ledger as it was before it was stored in columns, kept as the oracle
# of the columnar one: versions share one list of TensedRecords and each
# sees the prefix of its own length.


class ListLedger:
    __slots__ = ("_log", "_size")

    def __init__(self, records=()):
        self._log = list(records)
        self._size = len(self._log)

    @property
    def records(self):
        return tuple(islice(self._log, self._size))

    def __len__(self):
        return self._size

    def __iter__(self):
        return islice(self._log, self._size)

    def __eq__(self, other):
        if not isinstance(other, ListLedger):
            return NotImplemented
        return self._size == other._size and self.records == other.records

    def __hash__(self):
        return hash(self.records)


def list_record_valuation(ledger, at, prop_id, truth, asserted_at):
    for name, value in (("at", at), ("asserted_at", asserted_at)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    if type(truth) is not TruthValue:
        raise TypeError(f"truth must be a TruthValue, got {truth!r}")
    log, size = ledger._log, ledger._size
    if size and asserted_at < log[size - 1].asserted_at:
        raise NonMonotoneAssertion(
            f"asserted_at {asserted_at} regresses behind {log[size - 1].asserted_at}"
        )
    rec = TensedRecord(at, prop_id, derive_tense(at, asserted_at), truth, asserted_at)
    if len(log) == size:
        log.append(rec)
    if log[size] is not rec:
        log = log[:size]
        log.append(rec)
    appended = ListLedger.__new__(ListLedger)
    appended._log = log
    appended._size = size + 1
    return appended


def list_check_past_unalterability(ledger):
    baselines = {}
    found = {}
    gap = TruthValue.GAP
    for at, prop_id, tense, truth, asserted_at in ledger:
        key = (prop_id, at)
        baseline = baselines.get(key)
        if baseline is None:
            baselines[key] = truth if truth is not gap and tense != "future" else None
        elif truth is not baseline:
            kind = "loss" if truth is gap else "flip"
            found.setdefault(key, []).append(Violation(prop_id, at, baseline, truth, asserted_at, kind))
    return tuple(v for key in baselines if key in found for v in found[key])


def list_ledger_lines(ledger):
    return [
        f"{at}\t{prop_id}\t{tense}\t{truth._value_}\t{asserted_at}"
        for at, prop_id, tense, truth, asserted_at in ledger
    ]


#: One append: the version it goes to (an index, modulo the versions so
#: far), at, prop id, truth and how far asserted_at moves past that
#: version's last one (-1 asks for a regression).
ledger_ops = st.lists(
    st.tuples(
        st.integers(0, 2**16),
        st.one_of(st.integers(0, 6), st.just(2**64 + 1)),
        st.sampled_from(("P", "Q", "é✓", "R\t")),
        st.sampled_from((T, F, G)),
        st.sampled_from((0, 0, 0, 1, 2, 2**70, -1)),
    ),
    max_size=40,
)


@given(ledger_ops)
def test_columns_match_the_list_ledger_on_newest_and_forked_versions(ops):
    pairs = [(Ledger(), ListLedger())]
    for choice, at, pid, truth, step in ops:
        # Mostly the newest version, so that most appends extend in place.
        new, old = pairs[-1] if choice % 3 else pairs[choice % len(pairs)]
        last = old.records[-1].asserted_at if len(old) else 0
        asserted = last + step
        if step < 0:
            if last:
                with pytest.raises(NonMonotoneAssertion):
                    record_valuation(new, at, pid, truth, asserted)
                with pytest.raises(NonMonotoneAssertion):
                    list_record_valuation(old, at, pid, truth, asserted)
            continue
        pairs.append((record_valuation(new, at, pid, truth, asserted), list_record_valuation(old, at, pid, truth, asserted)))
    for new, old in pairs:
        assert len(new) == len(old)
        assert new.records == old.records == tuple(new)
        assert all(type(rec) is TensedRecord for rec in new)
        assert hash(new) == hash(old)
        assert ledger_lines(new) == list_ledger_lines(old)
        assert check_past_unalterability(new) == list_check_past_unalterability(old)
        assert Ledger(new.records) == new
    for (new_a, old_a), (new_b, old_b) in zip(pairs, pairs[::-1]):
        assert (new_a == new_b) == (old_a == old_b)


class RacingColumn(list):
    """A column whose next append lets another append to the same version
    run to completion first, as a concurrent thread could."""

    def __init__(self, items, rival):
        super().__init__(items)
        self.rival = rival

    def append(self, item):
        rival, self.rival = self.rival, None
        if rival is not None:
            rival()
        super().append(item)


def test_a_concurrent_append_to_the_same_version_forks():
    base = record_valuation(Ledger(), 0, "P", T, 0)
    won = []
    *others, asserted = base._cols  # asserted_at is the column an append claims its row in
    base._cols = (*others, RacingColumn(asserted, lambda: won.append(record_valuation(base, 1, "Q", F, 1))))
    lost = record_valuation(base, 2, "R", G, 2)
    (won,) = won
    assert won.records == ((0, "P", "present", T, 0), (1, "Q", "present", F, 1))
    assert lost.records == ((0, "P", "present", T, 0), (2, "R", "present", G, 2))
    assert base.records == ((0, "P", "present", T, 0),)
    # The losing claim is left behind in the shared column; the winner's
    # next append must fork rather than take it for its own.
    after = record_valuation(won, 3, "P", F, 3)
    assert after.records == won.records + ((3, "P", "present", F, 3),)
    assert lost.records[1:] == ((2, "R", "present", G, 2),)


def test_threads_extending_the_newest_version_keep_to_their_own_rows():
    # Every thread appends to the newest version it can see, so most
    # appends race another thread's append to the same version.
    base = record_valuation(Ledger(), 0, "P", T, 0)
    newest = [base]
    foreign = []

    def worker(n):
        row = (n, f"T{n}", "future" if n else "present", T, 0)
        for _ in range(2000):
            seen = newest[-1]
            led = record_valuation(seen, n, f"T{n}", T, 0)
            if led.records != seen.records + (row,):
                foreign.append(led.records)
            newest.append(led if len(led) < 30 else base)  # start over now and then

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert foreign == []
    assert base.records == ((0, "P", "present", T, 0),)


def test_an_int_subclass_tick_is_stored_as_a_plain_int():
    class Tick(int):
        def __repr__(self):
            return "tick"

    led = record_valuation(Ledger(), Tick(3), "P", T, Tick(4))
    assert [type(v) for v in led.records[0]] == [int, str, str, TruthValue, int]
    assert ledger_lines(led) == ["3\tP\tpast\t1\t4"]


def test_a_ledger_built_from_records_checks_them():
    with pytest.raises(ValueError, match="tense 'past' disagrees"):
        Ledger([TensedRecord(0, "P", "past", T, 0)])
    with pytest.raises(NonMonotoneAssertion):
        Ledger([TensedRecord(0, "P", "past", T, 1), TensedRecord(0, "P", "present", T, 0)])
