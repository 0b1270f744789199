"""The draw-time SVG writer against the element-tree oracle, and its doors.

``reference_svg.py`` keeps the element-tree writer the draw-time one
replaced; any document both can draw must come out byte for byte the same.
The doors: a character XML 1.0 forbids becomes U+FFFD wherever text goes
(so every figure parses), a non-finite number attribute is refused with
its tag and name, a hierarchy leaf value that is not a finite number >= 0
is refused with the node's name, and the HTML page escapes its text.
"""

from __future__ import annotations

import math
import random
import xml.etree.ElementTree as ElementTree

import pytest

from repro.viz import (
    HierarchyNode,
    SvgDocument,
    hierarchy_from_dict,
    html_page,
    render_circlepack,
    render_graph,
    render_sunburst,
    render_treemap,
)
from repro.viz.svg import escape

import reference_svg

NUMBERS = [
    -0.0, 0.0, 0.0005, -0.0005, 2.5, -7.25, 1e-9, 1e15, -1e15, 1e15 + 0.5,
    999999999999999.9, 123456.789, 0, 3, -12, 10**20, True, False,
]
STRINGS = [
    "", "plain", "#1f77b4", "a & b", "<tag>", 'say "hi"', "it's", "x > y < z",
    "&amp; already", "caf\u00e9 \u2603 \U0001f600", "tab\there", "two\nlines", "cr\rhere",
]
KEYWORDS = ["fill", "stroke", "stroke_width", "fill_opacity", "font_size", "text_anchor", "data_x"]
TRANSFORMS = [None, "", "translate(310.0,310.0)", "rotate(45) & <scale>"]


def value(rng):
    return rng.choice(NUMBERS + STRINGS + [None])


def attributes(rng):
    names = rng.sample(KEYWORDS, rng.randint(0, 4))
    return {name: value(rng) for name in names}


def random_pair(seed):
    """The same random document drawn by the writer and by the oracle."""
    rng = random.Random(seed)
    size = rng.choice(NUMBERS[:15]), rng.choice(NUMBERS[:15])
    background = rng.choice([None, "", "#ffffff", "a&b"])
    doc = SvgDocument(*size, background=background)
    ref = reference_svg.SvgDocument(*size, background=background)
    groups = [(None, None)]  # (writer container, oracle element); None is the root
    for _ in range(rng.randint(0, 30)):
        kind = rng.choice(["group", "rect", "circle", "line", "path", "text"])
        parent, ref_parent = rng.choice(groups)
        extra = attributes(rng)
        if kind == "group":
            transform = rng.choice(TRANSFORMS)
            group = doc.group(transform, parent=parent, **extra)
            if ref_parent is None:
                ref_group = ref.group(transform, **extra)
            else:
                ref_group = ref_parent.add(reference_svg.SvgElement("g", **extra))
                if transform:
                    ref_group.set("transform", transform)
            groups.append((group, ref_group))
            continue
        numbers = [rng.choice(NUMBERS) for _ in range(4)]
        title = rng.choice([None, None] + STRINGS)
        if kind == "line":
            doc.line(*numbers, parent=parent, **extra)
            ref.line(*numbers, parent=ref_parent, **extra)
            continue
        if kind == "text":
            content = rng.choice(STRINGS)
            doc.text(*numbers[:2], content, parent=parent, **extra)
            ref.text(*numbers[:2], content, parent=ref_parent, **extra)
            continue
        if kind == "rect":
            doc.rect(*numbers, parent=parent, title=title, **extra)
            element = ref.rect(*numbers, parent=ref_parent, **extra)
        elif kind == "circle":
            doc.circle(*numbers[:3], parent=parent, title=title, **extra)
            element = ref.circle(*numbers[:3], parent=ref_parent, **extra)
        else:
            d = rng.choice(["M 1.000 2.000 L 3.000 4.000", "M 0 0 Z", "", "<&>"])
            doc.path(d, parent=parent, title=title, **extra)
            element = ref.path(d, parent=ref_parent, **extra)
        if title is not None:
            ref.title(element, title)
    return doc.render(), ref.render()


@pytest.mark.parametrize("block", range(8))
def test_random_documents_equal_the_element_tree_writer(block):
    for seed in range(block * 50, block * 50 + 50):
        written, expected = random_pair(seed)
        assert written == expected, seed


def test_the_differential_reaches_every_case():
    """Nested groups, empty groups, titles, text, and every value kind."""
    documents = "".join(random_pair(seed)[0] for seed in range(400))
    for needle in ("    <g", "<g/>", "<title>", "<text", "&amp;", "&lt;", "&quot;",
                   '"1000000000000000.000"', '"0.001"', '"-0.001"', '"True"', '"False"',
                   '"100000000000000000000"', 'transform="'):
        assert needle in documents, needle


# -- characters XML 1.0 forbids -------------------------------------------------------

FORBIDDEN = (
    [chr(code) for code in range(0x00, 0x09)]
    + ["\x0b", "\x0c"]
    + [chr(code) for code in range(0x0e, 0x20)]
    + ["\ud800", "\udbff", "\udc00", "\udfff", "\ufffe", "\uffff"]
)


@pytest.mark.parametrize("char", FORBIDDEN, ids=lambda char: f"U+{ord(char):04X}")
def test_a_forbidden_character_becomes_a_replacement_character(char):
    doc = SvgDocument(10, 10)
    group = doc.group(transform=f"translate(1,1){char}", data_x=f"g{char}")
    doc.text(1, 1, f"bad{char}char", parent=group, fill=f"a{char}b")
    doc.rect(0, 0, 5, 5, parent=group, title=f"rect{char}tip", stroke=f"s{char}")
    doc.circle(0, 0, 5, title=f"circle{char}tip")
    doc.path(f"M 0 0{char}", title=f"path{char}tip")
    root = ElementTree.fromstring(doc.render())
    assert char not in doc.render()
    namespace = "{http://www.w3.org/2000/svg}"
    group = root.find(f"{namespace}g")
    assert group.get("transform") == "translate(1,1)\ufffd"
    assert group.find(f"{namespace}text").text == "bad\ufffdchar"
    assert group.find(f"{namespace}text").get("fill") == "a\ufffdb"
    assert group.find(f"{namespace}rect/{namespace}title").text == "rect\ufffdtip"
    assert root.find(f"{namespace}circle/{namespace}title").text == "circle\ufffdtip"
    assert root.find(f"{namespace}path/{namespace}title").text == "path\ufffdtip"

    graph = render_graph([f"a{char}", "b"], [(f"a{char}", "b")]).render()
    ElementTree.fromstring(graph)
    assert "a\ufffd" in graph and char not in graph


def test_characters_xml_allows_are_kept():
    text = "tab\there, new\nline, cr\r, caf\u00e9 \u2603 \U0001f600 \ufffd \u00a0"
    assert escape(text) == text
    assert escape('<a href="x">&</a>') == "&lt;a href=&quot;x&quot;&gt;&amp;&lt;/a&gt;"


# -- numbers that are not finite ------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "draw, where",
    [
        (lambda: SvgDocument(NAN, 10), "<svg> width=nan"),
        (lambda: SvgDocument(10, INF), "<svg> height=inf"),
        (lambda: SvgDocument(10, 10).rect(NAN, 0, 1, 1), "<rect> x=nan"),
        (lambda: SvgDocument(10, 10).rect(0, -INF, 1, 1), "<rect> y=-inf"),
        (lambda: SvgDocument(10, 10).rect(0, 0, INF, 1), "<rect> width=inf"),
        (lambda: SvgDocument(10, 10).rect(0, 0, 1, INF), "<rect> height=inf"),
        (lambda: SvgDocument(10, 10).circle(INF, 0, 1), "<circle> cx=inf"),
        (lambda: SvgDocument(10, 10).circle(0, NAN, 1), "<circle> cy=nan"),
        (lambda: SvgDocument(10, 10).circle(0, 0, INF), "<circle> r=inf"),
        (lambda: SvgDocument(10, 10).line(0, 0, 0, NAN), "<line> y2=nan"),
        (lambda: SvgDocument(10, 10).text(NAN, 0, "t"), "<text> x=nan"),
        (lambda: SvgDocument(10, 10).rect(0, 0, 1, 1, stroke_width=NAN), "<rect> stroke-width=nan"),
        (lambda: SvgDocument(10, 10).path("M 0 0", stroke_opacity=-INF), "<path> stroke-opacity=-inf"),
        (lambda: SvgDocument(10, 10).group(opacity=INF), "<g> opacity=inf"),
    ],
)
def test_a_number_attribute_that_is_not_finite_is_refused(draw, where):
    with pytest.raises(ValueError, match=f"^{where}: not a finite number$"):
        draw()


# -- hierarchy values that are not counts ---------------------------------------------

FIGURES = [render_treemap, render_sunburst, render_circlepack]
NOT_COUNTS = [NAN, INF, -INF, -1, -0.5, "7", True, False, [3]]


def three_clusters(bad_value):
    root = HierarchyNode("data")
    for c in range(3):
        cluster = root.add_child(HierarchyNode(f"c{c}"))
        for k in range(3):
            name, value = f"c{c}k{k}", float(10 * (k + 1))
            if (c, k) == (1, 2):
                name, value = "bad", bad_value
            cluster.add_child(HierarchyNode(name, value=value))
    return root


def as_payload(bad_value):
    return {"name": "data", "children": [
        {"name": "c0", "children": [{"name": "ok", "value": 4}, {"name": "bad", "value": bad_value}]},
        {"name": "c1", "children": [{"name": "solo", "value": 2.5}]},
    ]}


@pytest.mark.parametrize("bad_value", NOT_COUNTS, ids=repr)
@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.__name__)
def test_a_leaf_value_that_is_not_a_count_is_refused(figure, bad_value):
    with pytest.raises(ValueError, match=r"^node 'bad': .* is not a finite number >= 0$"):
        figure(three_clusters(bad_value))
    with pytest.raises(ValueError, match=r"^node 'bad': .* is not a finite number >= 0$"):
        figure(hierarchy_from_dict(as_payload(bad_value)))


@pytest.mark.parametrize("bad_value", NOT_COUNTS, ids=repr)
def test_sum_values_refuses_what_is_not_a_count(bad_value):
    with pytest.raises(ValueError, match="node 'bad'"):
        hierarchy_from_dict(as_payload(bad_value)).sum_values()
    with pytest.raises(ValueError, match="node 'leaf'"):
        HierarchyNode("leaf").sum_values(default_leaf=bad_value)


@pytest.mark.parametrize("good_value", [0, 0.0, 7, 2.5, None], ids=repr)
@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.__name__)
def test_a_count_draws(figure, good_value):
    root = three_clusters(good_value)
    ElementTree.fromstring(figure(root).render())
    assert root.find("bad").value == (1.0 if good_value is None else good_value)
    assert not math.isnan(root.value)


# -- the HTML page ---------------------------------------------------------------------


def test_the_html_page_escapes_title_intro_and_captions():
    injected = "</figcaption><script>alert(1)</script>"
    page = html_page("<b>Title</b> & co", [(injected, SvgDocument(10, 10))], intro="a <i>b</i>")
    assert "<script>" not in page and "<b>" not in page and "<i>" not in page
    assert "&lt;/figcaption&gt;&lt;script&gt;alert(1)&lt;/script&gt;" in page
    assert "<title>&lt;b&gt;Title&lt;/b&gt; &amp; co</title>" in page
    assert "<p>a &lt;i&gt;b&lt;/i&gt;</p>" in page
    assert page.count("</figcaption>") == 1
