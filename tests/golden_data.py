"""Reference matrices for small chain widths, checked by hand.

All matrices are written in the package's canonical state order
(masks increasing, site 1 in the low bit) unless an explicit state
list says otherwise.  The crossed matrices and the wrapped paired
matrix of the truncated-square family are recorded in the orders
they were originally tabulated in, with the orders given alongside.
"""

import numpy as np

# quadratic, columnwise width 3: one step on 4-site path states
QUAD_COLUMN_W3 = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 1, 1, 0, 1, 0, 1],
    [1, 1, 0, 1, 1, 1, 1, 0],
    [1, 1, 1, 0, 0, 1, 1, 1],
    [1, 0, 1, 0, 0, 1, 0, 1],
    [1, 1, 1, 1, 1, 0, 0, 0],
    [1, 0, 1, 1, 0, 0, 0, 0],
    [1, 1, 0, 1, 1, 0, 0, 0],
]

# quadratic, rowwise width 4: one step on 4-site cycle states
QUAD_ROW_W4 = [
    [1, 1, 1, 1, 1, 1, 1],
    [1, 0, 1, 1, 0, 1, 1],
    [1, 1, 0, 1, 1, 1, 0],
    [1, 1, 1, 0, 0, 1, 1],
    [1, 0, 1, 0, 0, 1, 1],
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 0, 1, 1, 0, 0],
]

# crossed, columnwise width 3, in the tabulated state order below
CROSSED_COLUMN_W3_STATES = [0, 1, 2, 4, 8, 5, 9, 10]
CROSSED_COLUMN_W3 = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 0, 1, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
]

# crossed, rowwise width 4
CROSSED_ROW_W4_STATES = [0, 1, 2, 4, 8, 5, 10]
CROSSED_ROW_W4 = [
    [1, 1, 1, 1, 1, 1, 1],
    [1, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 0],
    [1, 1, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
]

# aztec, columnwise width 3: short-to-long factor, its transpose, and
# their product
AZTEC_COLUMN_W3_STEP1 = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
]
AZTEC_COLUMN_W3_COMPOSITE = [
    [16, 4, 4, 2, 4, 1, 2, 1],
    [4, 4, 2, 2, 1, 1, 1, 1],
    [4, 2, 4, 2, 2, 1, 2, 1],
    [2, 2, 2, 2, 1, 1, 1, 1],
    [4, 1, 2, 1, 4, 1, 2, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
    [2, 1, 2, 1, 2, 1, 2, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
]

# aztec, rowwise width 3: long-to-short factor and the product
AZTEC_ROW_W3_STEP1 = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
]
AZTEC_ROW_W3_COMPOSITE = [
    [8, 2, 2, 1, 2, 1, 1, 1],
    [2, 2, 1, 1, 1, 1, 1, 1],
    [2, 1, 2, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
    [2, 1, 1, 1, 2, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
]

# truncated-square, columnwise width 2: all three factors and product
T884_COLUMN_W2_STEP1 = [
    [1, 1, 1, 1],
    [1, 0, 1, 0],
    [1, 1, 0, 0],
]
T884_COLUMN_W2_STEP2 = [
    [1, 1, 1, 1],
    [1, 0, 1, 0],
    [1, 1, 0, 0],
    [1, 0, 0, 0],
]
T884_COLUMN_W2_COMPOSITE = [
    [9, 6, 6],
    [6, 3, 4],
    [6, 4, 3],
]

# truncated-square, rowwise width 3: the paired fan-out factor was
# tabulated with states sorted by their site vectors (site 1 most
# significant), so both orders are recorded as canonical masks.
T884_ROW_W3_STEP1_ROWSTATES = [0, 8, 4, 2, 10, 6, 1, 9, 5]
T884_ROW_W3_STEP1_COLSTATES = [0, 2, 1, 3]
T884_ROW_W3_STEP1 = [
    [1, 1, 1, 1],
    [1, 1, 0, 0],
    [1, 0, 1, 0],
    [1, 0, 1, 0],
    [1, 0, 0, 0],
    [1, 0, 1, 0],
    [1, 1, 0, 0],
    [1, 1, 0, 0],
    [1, 0, 0, 0],
]
T884_ROW_W3_STEP2 = [
    [1, 1, 1, 1],
    [1, 0, 1, 0],
    [1, 1, 0, 0],
    [1, 0, 0, 0],
]
# the three-factor product, back in canonical order on both sides
T884_ROW_W3_COMPOSITE = [
    [9, 6, 6, 6, 4, 6, 6, 6, 4],
    [6, 3, 4, 4, 2, 4, 3, 3, 2],
    [6, 4, 3, 3, 2, 3, 4, 4, 2],
    [6, 4, 3, 3, 2, 3, 4, 4, 2],
    [4, 2, 2, 2, 1, 2, 2, 2, 1],
    [6, 4, 3, 3, 2, 3, 4, 4, 2],
    [6, 3, 4, 4, 2, 4, 3, 3, 2],
    [6, 3, 4, 4, 2, 4, 3, 3, 2],
    [4, 2, 2, 2, 1, 2, 2, 2, 1],
]


def product(steps):
    """Exact int64 product of the steps' 0/1 arrays, left to right: a
    route to a composite that shares nothing with StepMatrix.push."""
    acc = steps[0].array.astype(np.int64)
    for step in steps[1:]:
        acc = acc @ step.array.astype(np.int64)
    return acc


def entries(step):
    return [list(r) for r in step.entries]


def reordered(step, row_masks, col_masks):
    ri = [step.rows.masks.tolist().index(m) for m in row_masks]
    ci = [step.cols.masks.tolist().index(m) for m in col_masks]
    return [[step.entries[i][j] for j in ci] for i in ri]


def transpose(mat):
    return [list(r) for r in zip(*mat)]
