"""Golden outputs: sha256 digests of canonical renders and of CLI JSON.

The digests pin the exact text of the kernel's results, so any change to the
residue engine or to how products are built must leave every canonical form
byte-identical.  They were taken with the general Laurent-series residue and
factor-by-factor products, before the closed simple-pole residue and the
one-shot builds existed.
"""

import hashlib

from conftest import invoke
from qdegree.checks import theorem_grid
from qdegree.contour import _offchain_sum
from qdegree.degree import assemble_degree, closed_form_degree
from qdegree.model import validate
from qdegree.mu import mu_on_z
from qdegree.resdata import res_al

DEEP_BLOCKS = ((6, 3, 1), (2, 1, 0))  # (m, t, a)
DEEP_DEPTHS = (8, 10)

KERNEL_SHA256 = "7f037f6165f19a7d0a007f3c812df13723af59221ecb70913730abf4c6375643"
DEGREE_JSON_SHA256 = "4bb9c521fab674603841b4c15dbb0c4b58c0126d0901c5f04d29d6ca21830289"

DEGREE_JSON_ARGS = (
    ["--m", "1", "--d", "2", "--t", "1", "--a", "0"],
    ["--m", "6", "--d", "4", "--t", "3", "--a", "1"],
    ["--m", "2", "--d", "3", "--t", "2", "--a", "1", "--q", "3", "--deg-sigma", "1"],
    ["--m", "3", "--d", "5", "--t", "1", "--a", "2", "--q", "7/2", "--deg-sigma", "2/3"],
    ["--m", "2", "--d", "3", "--t", "2", "--a", "1", "--q", "2.5", "--deg-sigma", "3/2"],
    ["--m", "6", "--d", "12", "--t", "3", "--a", "1", "--q", "2", "--deg-sigma", "1"],
)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _kernel_renders():
    params = list(theorem_grid(d_max=6))
    params += [validate(m, d, t, a) for d in DEEP_DEPTHS for m, t, a in DEEP_BLOCKS]
    for p in params:
        psi = mu_on_z(p)
        yield f"m={p.m} d={p.d} t={p.t} a={p.a}"
        yield psi.render()
        for l in range(1, p.d + 1):
            yield res_al(p, psi, l).render()
        yield assemble_degree(p).render()
        yield closed_form_degree(p).render()
    for t in (1, 2, 3):
        for a in (0, 1, 2):
            p = validate(t, 3, t, a)
            yield _offchain_sum(p, mu_on_z(p)).render()


def _degree_json():
    for args in DEGREE_JSON_ARGS:
        result = invoke(["degree", *args, "--json"])
        assert result.exit_code == 0, result.output
        yield result.output


def test_kernel_renders_unchanged():
    assert _digest(_kernel_renders()) == KERNEL_SHA256


def test_degree_json_unchanged():
    assert _digest(_degree_json()) == DEGREE_JSON_SHA256


def test_spot_render():
    # a literal value, so that a digest mismatch can be told from a broken harness
    p = validate(2, 3, 2, 1)
    assert (res_al(p, mu_on_z(p), 1).render()
            == "1/3 * q^(9) * (1 - q^(2))^3 * (1 - q^(6))^-1")
