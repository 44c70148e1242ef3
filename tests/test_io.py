"""Curve file parsing: delimited and structured formats."""

import pytest

from curvekit.io import (
    CurveFile,
    CurveFileError,
    parse_delimited,
    parse_structured,
    read_curve_file,
)

DELIMITED = """\
# demo curve
tenor_years,rate
1,0.05
# interior comment
2,0.051

3,0.052
"""


class TestDelimited:
    def test_basic_parse_with_comments_and_blanks(self):
        cf = parse_delimited(DELIMITED, "swap")
        assert cf.curve_type == "swap"
        assert cf.points == ((1.0, 0.05), (2.0, 0.051), (3.0, 0.052))

    def test_header_required(self):
        with pytest.raises(CurveFileError):
            parse_delimited("1,0.05\n2,0.05\n", "swap")

    def test_malformed_row_carries_line_number(self):
        text = "tenor_years,rate\n1,0.05\n2,oops\n"
        with pytest.raises(CurveFileError) as exc:
            parse_delimited(text, "swap")
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_wrong_field_count(self):
        with pytest.raises(CurveFileError):
            parse_delimited("tenor_years,rate\n1,0.05,9\n", "swap")

    def test_no_rows(self):
        with pytest.raises(CurveFileError):
            parse_delimited("tenor_years,rate\n", "swap")


class TestStructured:
    def test_full_object(self):
        cf = parse_structured(
            '{"curve_type": "zero", "points": [{"t": 0.5, "r": 0.01},'
            ' {"t": 2, "r": 0.02}], "label": "demo"}'
        )
        assert cf.curve_type == "zero"
        assert cf.points == ((0.5, 0.01), (2.0, 0.02))
        assert cf.label == "demo"

    def test_invalid_json(self):
        with pytest.raises(CurveFileError):
            parse_structured("{not json")

    def test_missing_keys(self):
        with pytest.raises(CurveFileError):
            parse_structured('{"points": []}')
        with pytest.raises(CurveFileError):
            parse_structured('{"curve_type": "swap"}')
        with pytest.raises(CurveFileError):
            parse_structured('{"curve_type": "swap", "points": [{"t": 1}]}')

    def test_non_numeric_point(self):
        with pytest.raises(CurveFileError):
            parse_structured('{"curve_type": "swap", "points": [{"t": 1, "r": "x"}]}')

    @pytest.mark.parametrize("point", ['{"t": "1", "r": 0.02}', '{"t": 1, "r": "0.02"}'])
    def test_numeric_strings_are_not_numbers(self, point):
        text = '{"curve_type": "swap", "points": [%s]}' % point
        with pytest.raises(CurveFileError, match=r"^points\[0\] has non-numeric 't' or 'r'$"):
            parse_structured(text)


class TestCurveFileInvariants:
    def test_unknown_type(self):
        with pytest.raises(CurveFileError):
            CurveFile("bond", ((1.0, 0.05),))

    def test_tenors_strictly_increasing(self):
        with pytest.raises(CurveFileError):
            CurveFile("zero", ((2.0, 0.05), (1.0, 0.04)))

    def test_swap_needs_consecutive_integer_grid(self):
        with pytest.raises(CurveFileError):
            CurveFile("swap", ((1.0, 0.05), (3.0, 0.05)))
        with pytest.raises(CurveFileError):
            CurveFile("discount", ((0.5, 0.99),))

    def test_zero_allows_fractional_tenors(self):
        cf = CurveFile("zero", ((0.25, 0.01), (1.5, 0.02)))
        assert cf.to_zero_curve().tenors == (0.25, 1.5)

    def test_non_finite_values_rejected_at_parse(self):
        with pytest.raises(CurveFileError):
            parse_delimited("tenor_years,rate\n1,inf\n", "swap")
        with pytest.raises(CurveFileError):
            parse_delimited("tenor_years,rate\n1,nan\n", "swap")

    def test_type_mismatch_on_conversion(self):
        cf = CurveFile("zero", ((1.0, 0.02),))
        with pytest.raises(ValueError):
            cf.to_swap_curve()


class TestReadCurveFile:
    def test_json_sniffing(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text('{"curve_type": "swap", "points": [{"t": 1, "r": 0.05}]}')
        assert read_curve_file(str(path)).curve_type == "swap"

    def test_delimited_needs_default_type(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tenor_years,rate\n1,0.05\n")
        with pytest.raises(CurveFileError):
            read_curve_file(str(path))
        assert read_curve_file(str(path), "swap").curve_type == "swap"
