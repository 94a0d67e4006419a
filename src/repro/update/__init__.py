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

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.update.columnar": (
            "apply_update",
            "change_value",
            "delete_subtree",
            "insert_subtree",
        ),
        "repro.update.maintainer": (
            "IncrementalMaintainer",
            "MaintainerStats",
            "enforce_summary_budget",
        ),
        "repro.update.ops": (
            "DeleteSubtree",
            "InsertSubtree",
            "UpdateFormatError",
            "UpdateOp",
            "ValueChange",
            "parse_fragment",
            "update_from_dict",
            "update_to_dict",
            "validate_update",
        ),
    },
)
