import pytest

from rfreasons.dimacs import DimacsError, read_dimacs, read_dnf, write_wcnf
from rfreasons.core import Term
from rfreasons.encodings import WeightedCnf, implicant_test_cnf
from rfreasons.solver import CnfInstance

import brute


class TestCnfRoundTrip:
    def test_parse_simple(self):
        cnf = read_dimacs("p cnf 2 1\n1 2 0\n")
        assert cnf.var_count == 2
        assert cnf.clauses == ((1, 2),)

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\np cnf 3 2\nc inner\n1 -2 0\n-3 0\n"
        cnf = read_dimacs(text)
        assert cnf.clauses == ((1, -2), (-3,))

    def test_clause_spanning_lines(self):
        cnf = read_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert cnf.clauses == ((1, 2, 3),)

    def test_round_trip_of_implicant_encoding(self, orchid):
        cnf = implicant_test_cnf(orchid).cnf
        body = "".join(" ".join(map(str, c)) + " 0\n" for c in cnf.clauses)
        again = read_dimacs(f"p cnf {cnf.var_count} {cnf.clause_count}\n{body}")
        assert again == cnf

    def test_error_carries_line_number(self):
        with pytest.raises(DimacsError) as e:
            read_dimacs("p cnf 2 1\n1 x 0\n")
        assert "line 2" in str(e.value)

    def test_missing_header(self):
        with pytest.raises(DimacsError):
            read_dimacs("1 2 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError) as e:
            read_dimacs("p cnf 2 1\n5 0\n")
        assert "exceeds" in str(e.value)

    def test_unterminated_clause(self):
        # reported at the line where the open clause starts
        for text, line in [
            ("p cnf 2 1\n1 2\n", 2),
            ("p cnf 2 2\n1 0\nc note\n\n-2\n1\n", 5),
            ("p cnf 2 2\n1 0 2\n", 2),
        ]:
            with pytest.raises(DimacsError, match=f"line {line}: unterminated"):
                read_dimacs(text)

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError):
            read_dimacs("p cnf 2 2\n1 0\n")


class TestWcnf:
    def test_top_weight_convention(self):
        problem = WeightedCnf(CnfInstance(2, [(1, 2)]), (((-1,), 1), ((-2,), 5)))
        text = write_wcnf(problem)
        header = text.splitlines()[0].split()
        top = int(header[4])
        assert top == 7  # soft total + 1
        assert text.splitlines()[1].startswith(f"{top} ")
        assert brute.read_wcnf(text) == (2, 7, [(7, (1, 2)), (1, (-1,)), (5, (-2,))])


class TestDnf:
    def test_parse_terms(self):
        terms, var_count = read_dnf("c two terms\np dnf 3 2\n1 -2 0\n3\n0\n")
        assert var_count == 3
        assert terms == [Term([1, -2]), Term([3])]

    def test_term_count_mismatch(self):
        with pytest.raises(DimacsError) as e:
            read_dnf("p dnf 3 5\n1 0\n-2 3 0\n")
        assert "declares 5 terms, found 2" in str(e.value)

    def test_error_carries_line_number(self):
        with pytest.raises(DimacsError) as e:
            read_dnf("p dnf 2 1\n1 x 0\n")
        assert "line 2" in str(e.value)

    def test_inconsistent_term(self):
        with pytest.raises(DimacsError) as e:
            read_dnf("p dnf 2 2\n1 0\n2 -2 0\n")
        assert "line 3" in str(e.value)

    def test_header_errors(self):
        for text in ("1 2 0\n", "p cnf 2 1\n1 0\n", "p dnf 2\n1 0\n", ""):
            with pytest.raises(DimacsError):
                read_dnf(text)

    def test_unterminated_term_names_its_line(self):
        with pytest.raises(DimacsError, match="line 2: unterminated"):
            read_dnf("p dnf 2 1\n1 2")

    @pytest.mark.parametrize(
        "read, text",
        [
            (read_dnf, "p dnf -1 1\n1 0\n"),
            (read_dimacs, "p cnf -3 0\n"),
            (read_dnf, "p dnf 2 -1\n"),
        ],
    )
    def test_negative_header_count_refused(self, read, text):
        with pytest.raises(DimacsError, match="line 1: header <.*> must be non-negative"):
            read(text)
