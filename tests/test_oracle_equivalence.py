"""Fast randomized interpreter-vs-oracle spot checks per operation.
The acceptance suite runs the same machinery at full case counts."""

import zlib

import pytest

from equivalence import OPERATIONS, run_cases


@pytest.mark.usefixtures("checked_tables")
@pytest.mark.parametrize("operation", OPERATIONS)
def test_operation_matches_oracle(operation):
    run_cases(operation, seed=zlib.crc32(operation.encode()), count=60)
