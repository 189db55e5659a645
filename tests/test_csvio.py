import os

import pytest

from fedcost.csvio import write_csv


def test_write_csv_rejects_a_row_of_the_wrong_arity_and_leaves_nothing(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="row arity 1 does not match header arity 2"):
        write_csv(str(path), ["a", "b"], [[1, 2.5], [3]])
    assert os.listdir(tmp_path) == []


def test_write_csv_keeps_an_existing_file_when_a_row_is_bad(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ["a", "b"], [[1, True]])
    with pytest.raises(ValueError):
        write_csv(str(path), ["a", "b"], [[1, 2], [1, 2, 3]])
    assert os.listdir(tmp_path) == ["table.csv"]
    assert path.read_text() == "a,b\n1,true\n"
