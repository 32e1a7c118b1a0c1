"""Unit tests for the text bar behind the Markdown Figure 4's PMF column."""

from repro.resultsdb.report import _bar


class TestBar:
    def test_empty_and_full(self):
        assert _bar(0.0) == ""
        assert len(_bar(1.0)) == 40

    def test_clamps_out_of_range(self):
        assert _bar(-0.5) == ""
        assert len(_bar(1.7)) == 40

    def test_proportional(self):
        assert len(_bar(0.5)) == 20

    def test_custom_char_and_width(self):
        assert _bar(1.0, width=5, char="C") == "CCCCC"
