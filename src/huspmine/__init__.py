"""High-utility sequence mining with per-item minimum utility thresholds."""

from .model import (
    Item,
    Match,
    Money,
    MTable,
    ModelError,
    Pattern,
    QItemset,
    QSDatabase,
    QSequence,
    SymbolTable,
    UnknownItem,
    UtilityTable,
    database_utility,
    find_matches,
    item_utility,
    miu,
    pattern_utility,
    pattern_utility_in_sequence,
    qitemset_utility,
    qsequence_utility,
)
from .miner import (
    Bounds,
    ConfigError,
    Husp,
    MiningConfig,
    MiningObserver,
    MiningStats,
    OneSeqInfo,
    USPT,
    USPT1,
    USPT2,
    mine,
    pattern_sort_key,
)
from .oracle import EnumerationTooLarge, brute_force_bounds, brute_force_mine
from .formats import (
    GenParams,
    ParseError,
    SUtilityMismatch,
    bind_thresholds,
    bind_unit_utilities,
    generate_mtable,
    generate_synthetic,
    parse_dataset,
    parse_item_values,
    parse_pattern_string,
    parse_results,
    serialize_dataset,
    serialize_item_values,
    write_results,
)

__version__ = "0.1.0"
