"""The frozen result records: slotted, immutable, and copied or pickled to equal objects."""

import copy
import dataclasses
import pickle

import pytest

from treezeta.dyck import IdentityReport
from treezeta.genfun import spectrum_cut
from treezeta.spectral import QuadratureSpec, zeta_numeric
from treezeta.verify import run_battery

RECORDS = {
    "ZetaEval": lambda: zeta_numeric(3, 2.0),
    "QuadratureSpec": lambda: QuadratureSpec(max_nodes=64),
    "SpectrumCut": lambda: spectrum_cut(3),
    "CheckResult": lambda: run_battery(["moments"])[0],
    "IdentityReport": lambda: IdentityReport(
        ok=False, dp_checked=3, brute_checked=2, brute_words=5,
        mismatches=("dp and bruteforce disagree at n = 1",), mismatch_ns=(1,),
    ),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_record_is_slotted_frozen_and_copies_to_an_equal_object(kind):
    record = RECORDS[kind]()
    assert type(record).__name__ == kind
    assert not hasattr(record, "__dict__")
    first = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, getattr(record, first))
    # a name that is no field is refused too; CPython 3.11's frozen __setattr__
    # reports it as a TypeError on the slotted copy of the class
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.extra = 1
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        dataclasses.replace(record),
    ):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert twin is not record
