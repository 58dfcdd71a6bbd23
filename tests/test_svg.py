"""Deterministic SVG chart emission."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from conftest import fab_curve

from roarsel.roar import DeletionOrder
from roarsel.svg import curve_chart, save_chart


TITLE = "svs / least_first / by_band"


def sample_curve():
    return fab_curve([0.9, 0.85, 0.8, 0.5, 0.2], [[4], [3], [2], [1]],
                     DeletionOrder.LEAST_FIRST)


def test_line_chart_is_a_single_svg_document():
    text = curve_chart(sample_curve(), title="demo")
    assert text.startswith("<svg ")
    assert text.endswith("</svg>\n")
    assert text.count("<svg ") == 1
    assert text.count("<polyline ") == 2
    assert ">validation</text>" in text and ">test</text>" in text
    assert ">demo</text>" in text


def test_title_is_escaped_into_well_formed_svg():
    root = ET.fromstring(curve_chart(sample_curve(), title="R&D <bands>"))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "R&D <bands>" in texts


@pytest.mark.parametrize("chart, digest", [
    (lambda: curve_chart(sample_curve(), TITLE),
     "b13562e4c9e3d9931ab4feee38df1b810dc874df77853db0a7db8d58e2d92ed0"),
    # a flat metric takes the padding branch for an empty y range
    (lambda: curve_chart(fab_curve([0.5] * 5, [[4], [3], [2], [1]], DeletionOrder.MOST_FIRST),
                         "svs / most_first / by_band"),
     "4b7fd057216cc9e25fa2c6ec310e6a991b3a9bde5a1cde581ee78f6e82590039"),
    (lambda: curve_chart(sample_curve(), title="R&D <bands>"),
     "9182b091fdfc2de762dfdbc7fc59ccd32141c7d79a3d80d8bed629a1b93d8373"),
], ids=["sample", "flat", "escaped-title"])
def test_chart_bytes_are_pinned(chart, digest):
    assert hashlib.sha256(chart().encode()).hexdigest() == digest


def test_line_chart_bytes_are_deterministic():
    assert curve_chart(sample_curve(), TITLE) == curve_chart(sample_curve(), TITLE)


def test_curve_chart_contents():
    text = curve_chart(sample_curve(), TITLE)
    assert f">{TITLE}</text>" in text
    assert ">validation</text>" in text and ">test</text>" in text
    assert ">fraction of groups removed</text>" in text
    assert ">r2</text>" in text
    assert "baseline 0.9" in text and "stroke-dasharray" in text
    # one marker per (record, series) pair
    assert text.count("<circle ") == 2 * 5
    # fraction 0 sits on the left axis
    assert 'cx="70.00"' in text


def test_curve_chart_title_override_and_determinism():
    a = curve_chart(sample_curve(), title="custom words")
    assert ">custom words</text>" in a
    assert a == curve_chart(sample_curve(), title="custom words")


def test_save_chart_atomic_and_stable(tmp_path):
    text = curve_chart(sample_curve(), TITLE)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    save_chart(text, a)
    save_chart(text, b)
    assert a.read_text() == text
    assert a.read_bytes() == b.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))
