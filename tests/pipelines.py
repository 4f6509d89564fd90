"""Table-row pipelines along the structured decomposition, which the table
itself no longer builds: the tests whose corpora pin structured outputs
(chain order, tags, basis indices) read them from here."""

from functools import lru_cache

import verlie as v
from verlie.table import row_pipeline


@lru_cache(maxsize=None)
def structured_pipeline(algebra: str, p: int, element: str, subset: tuple[int, ...] | None):
    """Realize, decompose (structured along `subset`, generically when it is
    None), semisimplify."""
    if subset is None:
        return row_pipeline(algebra, p, element)
    alg = v.catalog_algebra(algebra, p)
    realization = v.realize(alg, v.parse_element(element, alg)[1])
    decomp = v.structured_decompose(realization, subset)
    return realization, decomp, v.semisimplify(realization, decomp)


def spec_pipeline(spec):
    """The pipeline of a table row's first element, structured where the row
    names a subset."""
    return structured_pipeline(spec.algebra, spec.p, spec.elements[0], spec.subset)


def row_key(spec) -> str:
    """A table row named by its algebra, first element and characteristic, as 'e8@e1|p=3'."""
    return f"{spec.algebra}@{spec.elements[0]}|p={spec.p}"
