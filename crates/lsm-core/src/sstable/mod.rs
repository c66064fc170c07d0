//! SSTable machinery: blocks, filters, builder and reader.

/// Restart-point key-prefix-compressed blocks.
pub mod block;
/// SSTable builder, footer, index and reader.
pub mod table;

pub use block::{Block, BlockBuilder, BlockIter};
pub use table::{
    scan_all, verify_block, BlockHandle, Table, TableBuilder, TableIterator, TableOptions,
    FOOTER_SIZE,
};
