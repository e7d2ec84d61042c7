import numpy as np
import pytest

from qsmc.matio import (MatrixFormatError, parse_matrix, parse_plant_text,
                        parse_vector, read_plant_file)


def test_parse_matrix_basic():
    m = parse_matrix("1 0 ; 0 1")
    assert np.array_equal(m, np.eye(2))


def test_parse_matrix_single_row():
    m = parse_matrix("1.5 -2 3e-1")
    assert m.shape == (1, 3)
    assert m[0, 2] == 0.3


def test_parse_matrix_errors():
    with pytest.raises(MatrixFormatError):
        parse_matrix("1 2 ; 3")
    with pytest.raises(MatrixFormatError):
        parse_matrix("1 x")
    with pytest.raises(MatrixFormatError):
        parse_matrix("1 2 ;")


def test_parse_vector():
    v = parse_vector("-1.0 1 1 -2")
    assert np.array_equal(v, [-1.0, 1.0, 1.0, -2.0])
    with pytest.raises(MatrixFormatError):
        parse_vector("")
    with pytest.raises(MatrixFormatError):
        parse_vector("1 two")


def test_parse_plant_text_paragraphs():
    text = """# comment line
0 1
0 0

0
1

1 0
0 1
"""
    A, B, C = parse_plant_text(text)
    assert np.array_equal(A, [[0, 1], [0, 0]])
    assert np.array_equal(B, [[0], [1]])
    assert np.array_equal(C, np.eye(2))


def test_parse_plant_text_wrong_count():
    with pytest.raises(MatrixFormatError, match="expected 3"):
        parse_plant_text("1 0\n0 1\n\n1\n0\n")


def test_parse_plant_text_bad_token():
    with pytest.raises(MatrixFormatError):
        parse_plant_text("0 1 ; 1 0\n\n1\n0\n\n1 0\n")


def test_plant_file_round_trip(tmp_path):
    A = np.array([[-3.79, 0.04], [-0.14, -0.36]])
    B = np.array([[25.0], [1.42]])
    C = np.eye(2)
    path = tmp_path / "toy.plant"
    path.write_text("-3.79 0.04\n-0.14 -0.36\n\n25.0\n1.42\n\n1.0 0.0\n0.0 1.0\n",
                    encoding="utf-8")
    A2, B2, C2 = read_plant_file(path)
    assert np.array_equal(A, A2)
    assert np.array_equal(B, B2)
    assert np.array_equal(C, C2)
