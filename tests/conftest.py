import pytest

from dp6._ratfunc import QOmega
from dp6.fieldtower import (
    ExtensionDescriptor,
    FactRegistry,
    GaloisTower,
    VarAutomorphism,
    apply,
)
from dp6.points import ClosedPointSpec, composite_for
from dp6.surface import make_surface

ONE = QOmega.one()
MINUS = -QOmega.one()


def cycle3_plus_extra(n_extra=1):
    """Permutation action (x1 x2 x3) extended by fixed extra variables."""
    n = 3 + n_extra
    perm = [1, 2, 0] + list(range(3, n))
    return VarAutomorphism(perm, [ONE] * n)


@pytest.fixture(scope="session")
def s3_tower():
    g = VarAutomorphism([1, 2, 0, 3], [ONE] * 4)
    f = VarAutomorphism([0, 2, 1, 3], [ONE] * 4)
    return GaloisTower(["t1", "t2", "t3", "s"], {"g": g, "f": f}, name="F")


@pytest.fixture(scope="session")
def s3_example(s3_tower):
    return make_surface("S3", s3_tower, s3_tower.var("s"), name="S")


@pytest.fixture(scope="session")
def example_points(s3_tower, s3_example):
    t1, t2, t3, s = (s3_tower.var(v) for v in ("t1", "t2", "t3", "s"))
    pts = []
    for z in range(4):
        mu = s * (t1 + z) * (t2 + z) * (t3 + z)
        E = ExtensionDescriptor("kummer-cubic", s3_tower, radicand=mu,
                                name=f"E{z}")
        cg = composite_for(s3_tower, E)
        comp = cg.comp
        lam = (comp.r() / (t3 + z)).inv()
        lam2 = lam * apply(cg.generators["g"], lam)
        pts.append(ClosedPointSpec(3, E, lam, lam2, name=f"p{z}"))
    return pts


@pytest.fixture(scope="session")
def z6_tower():
    g = VarAutomorphism([1, 2, 0, 3], [ONE] * 4)
    h = VarAutomorphism([0, 1, 2, 3], [ONE] * 3 + [MINUS])
    return GaloisTower(["x1", "x2", "x3", "y"], {"g": g, "h": h}, name="FZ")


@pytest.fixture(scope="session")
def z6_hex(z6_tower):
    x1, x2 = z6_tower.var("x1"), z6_tower.var("x2")
    return make_surface("Z6", z6_tower, z6_tower.one(), x1 / x2, name="SZ")


@pytest.fixture(scope="session")
def z6_index6(z6_tower):
    x1, x2, x3, y = (z6_tower.var(v) for v in ("x1", "x2", "x3", "y"))
    sig = x1 + x2 + x3
    xi = (sig + y) / (sig - y)
    reg = FactRegistry()
    reg.assume(xi, z6_tower.element_named("g"), "NotNorm",
               note="user assertion for the index-6 instance")
    return make_surface("Z6", z6_tower, xi, x1 / x2, registry=reg, name="S6")


@pytest.fixture(scope="session")
def z6_index3(z6_tower):
    x1, x2, x3, y = (z6_tower.var(v) for v in ("x1", "x2", "x3", "y"))
    sig = x1 + x2 + x3
    xi = (sig + y) / (sig - y)
    reg = FactRegistry()
    reg.assume(xi, z6_tower.element_named("g"), "NotNorm",
               note="user assertion for the index-3 instance")
    return make_surface("Z6", z6_tower, xi, z6_tower.one(), registry=reg,
                        name="S3z")


@pytest.fixture(scope="session")
def d6_tower():
    g = VarAutomorphism([1, 2, 0, 3], [ONE] * 4)
    f = VarAutomorphism([0, 2, 1, 3], [ONE] * 4)
    h = VarAutomorphism([0, 1, 2, 3], [ONE] * 3 + [MINUS])
    return GaloisTower(["x1", "x2", "x3", "y"], {"g": g, "f": f, "h": h},
                       name="FD")


@pytest.fixture(scope="session")
def d6_index2(d6_tower):
    x1, x2, x3 = (d6_tower.var(v) for v in ("x1", "x2", "x3"))
    rho = x1 * x2 / (x3 * x3)
    return make_surface("D6", d6_tower, d6_tower.one(), rho, name="SD")


@pytest.fixture(scope="session")
def d6_index3(d6_tower):
    x1, x2, x3, y = (d6_tower.var(v) for v in ("x1", "x2", "x3", "y"))
    sig = x1 + x2 + x3
    xi = (sig + y) / (sig - y)
    reg = FactRegistry()
    reg.assume(xi, d6_tower.element_named("g"), "NotNorm",
               note="user assertion for the D6 index-3 instance")
    return make_surface("D6", d6_tower, xi, d6_tower.one(), registry=reg,
                        name="SD3")
