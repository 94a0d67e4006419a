"""Document-update streams and incremental synopsis maintenance.

``repro.update`` turns the static build pipeline into a maintained
view: :mod:`repro.update.ops` defines the update vocabulary (subtree
insert / subtree delete / value change, addressed by preorder index,
with fragments parsed by the byte tokenizer), :mod:`repro.update.
columnar` applies it in place to :class:`~repro.xmltree.columnar.
ColumnarDocument` columns, and :mod:`repro.update.maintainer` keeps a
live :class:`~repro.core.synopsis.XClusterSynopsis` bit-exact with a
rebuild-from-scratch after every step — the rebuild path stays on as
the differential harness's oracle (``python -m repro check --updates``).
"""

from repro.update.columnar import (
    apply_update,
    change_value,
    delete_subtree,
    insert_subtree,
)
from repro.update.maintainer import (
    IncrementalMaintainer,
    MaintainerStats,
    enforce_summary_budget,
)
from repro.update.ops import (
    DeleteSubtree,
    InsertSubtree,
    UpdateFormatError,
    UpdateOp,
    ValueChange,
    apply_update_tree,
    parse_fragment,
    tree_preorder,
    update_from_dict,
    update_to_dict,
    validate_update,
)

__all__ = [
    "DeleteSubtree",
    "IncrementalMaintainer",
    "InsertSubtree",
    "MaintainerStats",
    "UpdateFormatError",
    "UpdateOp",
    "ValueChange",
    "apply_update",
    "apply_update_tree",
    "change_value",
    "delete_subtree",
    "enforce_summary_budget",
    "insert_subtree",
    "parse_fragment",
    "tree_preorder",
    "update_from_dict",
    "update_to_dict",
    "validate_update",
]
