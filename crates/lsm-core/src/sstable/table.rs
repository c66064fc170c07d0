//! SSTable builder and reader.
//!
//! File layout (no compression; CRC-checked like LevelDB):
//!
//! ```text
//! [data block 0][trailer] ... [data block N][trailer]
//! [filter block (bloom over user keys)][trailer]
//! [index block][trailer]
//! [footer: filter handle | index handle | padding | magic]  (48 bytes)
//! ```
//!
//! Each trailer is `type(1, always 0) | masked crc32c(4)` over the block
//! contents plus the type byte.

use crate::context::SharedCtx;
use crate::error::{corruption, Error, Result};
use crate::iterator::InternalIterator;
use crate::sstable::block::{Block, BlockBuilder, BlockIter};
use crate::types::{self, make_internal_key, user_key, FileId, ValueType, MAX_SEQUENCE};
use crate::util::bloom::BloomFilter;
use crate::util::coding::{decode_fixed64, get_varint64, put_fixed64, put_varint64};
use crate::util::crc32c;
use smr_sim::IoKind;
use std::sync::Arc;

/// Footer size in bytes.
pub const FOOTER_SIZE: usize = 48;
/// Table magic number (LevelDB's).
pub const TABLE_MAGIC: u64 = 0xdb4775248b80fb57;
/// Per-block trailer: 1 type byte + 4 CRC bytes.
pub const BLOCK_TRAILER_SIZE: usize = 5;

/// Position of a block within the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockHandle {
    /// Byte offset of the block contents.
    pub offset: u64,
    /// Size of the block contents (excluding the trailer).
    pub size: u64,
}

impl BlockHandle {
    fn encode(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.offset);
        put_varint64(dst, self.size);
    }

    fn encoded(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(20);
        self.encode(&mut v);
        v
    }

    pub(crate) fn decode(src: &[u8]) -> Result<(BlockHandle, usize)> {
        let Some((offset, n1)) = get_varint64(src) else {
            return corruption("bad block handle offset");
        };
        let Some((size, n2)) = get_varint64(&src[n1..]) else {
            return corruption("bad block handle size");
        };
        Ok((BlockHandle { offset, size }, n1 + n2))
    }
}

/// Build-time options for one table.
#[derive(Clone, Copy, Debug)]
pub struct TableOptions {
    /// Target uncompressed data-block size.
    pub block_size: usize,
    /// Restart interval inside blocks.
    pub restart_interval: usize,
    /// Bloom-filter budget per key (0 disables the filter).
    pub bloom_bits_per_key: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            block_size: 4096,
            restart_interval: 16,
            bloom_bits_per_key: 10,
        }
    }
}

/// Index separator between the last key of a block and the first key of
/// the next: shorten the user key if that yields a strictly greater one,
/// stamped with `MAX_SEQUENCE` so it still sorts not-before the block's
/// entries in internal order.
fn separator(last: &[u8], next: &[u8]) -> Vec<u8> {
    let ul = user_key(last);
    let un = user_key(next);
    let mut tmp = ul.to_vec();
    types::find_shortest_separator(&mut tmp, un);
    if tmp.as_slice() > ul {
        make_internal_key(&tmp, MAX_SEQUENCE, ValueType::Value)
    } else {
        last.to_vec()
    }
}

/// Index key after the final block.
fn successor(last: &[u8]) -> Vec<u8> {
    let ul = user_key(last);
    let mut tmp = ul.to_vec();
    types::find_short_successor(&mut tmp);
    if tmp.as_slice() > ul {
        make_internal_key(&tmp, MAX_SEQUENCE, ValueType::Value)
    } else {
        last.to_vec()
    }
}

/// Builds one SSTable into an in-memory byte buffer; the placement policy
/// decides where the bytes land on disk.
#[derive(Debug)]
pub struct TableBuilder {
    opts: TableOptions,
    buf: Vec<u8>,
    block: BlockBuilder,
    index: BlockBuilder,
    /// Handle of the last finished data block, whose index entry waits
    /// for the next key (the separator needs both sides).
    pending: Option<BlockHandle>,
    /// User keys for the bloom filter; collected only when one is built.
    user_keys: Vec<Vec<u8>>,
    first_key: Option<Vec<u8>>,
    last_key: Vec<u8>,
    num_entries: u64,
}

impl TableBuilder {
    /// Creates an empty builder.
    pub fn new(opts: TableOptions) -> Self {
        TableBuilder {
            opts,
            buf: Vec::new(),
            block: BlockBuilder::new(opts.restart_interval),
            index: BlockBuilder::new(1),
            pending: None,
            user_keys: Vec::new(),
            first_key: None,
            last_key: Vec::new(),
            num_entries: 0,
        }
    }

    /// Adds an entry; internal keys must arrive in strictly increasing
    /// order.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) {
        if let Some(handle) = self.pending.take() {
            // `last_key` is still the finished block's last key.
            self.index
                .add(&separator(&self.last_key, ikey), &handle.encoded());
        }
        if self.first_key.is_none() {
            self.first_key = Some(ikey.to_vec());
        }
        if self.opts.bloom_bits_per_key > 0 {
            self.user_keys.push(user_key(ikey).to_vec());
        }
        self.block.add(ikey, value);
        self.last_key.clear();
        self.last_key.extend_from_slice(ikey);
        self.num_entries += 1;
        if self.block.current_size_estimate() >= self.opts.block_size {
            self.flush_block();
        }
    }

    /// Appends the block trailer (type byte + masked CRC32C) to the
    /// contents written at `buf[start..]`, checksumming them in place.
    fn seal_block(buf: &mut Vec<u8>, start: usize) -> BlockHandle {
        let handle = BlockHandle {
            offset: start as u64,
            size: (buf.len() - start) as u64,
        };
        buf.push(0); // type byte: uncompressed
        let crc = crc32c::mask(crc32c::crc32c(&buf[start..]));
        buf.extend_from_slice(&crc.to_le_bytes());
        handle
    }

    fn write_raw_block(buf: &mut Vec<u8>, contents: &[u8]) -> BlockHandle {
        let start = buf.len();
        buf.extend_from_slice(contents);
        Self::seal_block(buf, start)
    }

    fn flush_block(&mut self) {
        if self.block.is_empty() {
            return;
        }
        let start = self.buf.len();
        self.block.finish_into(&mut self.buf);
        self.pending = Some(Self::seal_block(&mut self.buf, start));
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Current file size estimate (finished blocks only).
    pub fn file_size_estimate(&self) -> u64 {
        (self.buf.len() + self.block.current_size_estimate()) as u64
    }

    /// Smallest internal key added.
    pub fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Largest internal key added.
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Finishes the table and returns the file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_block();
        if let Some(handle) = self.pending.take() {
            self.index
                .add(&successor(&self.last_key), &handle.encoded());
        }
        // Filter block.
        let filter_handle = if self.opts.bloom_bits_per_key > 0 {
            let filter = BloomFilter::build(&self.user_keys, self.opts.bloom_bits_per_key);
            Self::write_raw_block(&mut self.buf, &filter.encode())
        } else {
            BlockHandle { offset: 0, size: 0 }
        };
        // Index block.
        let start = self.buf.len();
        self.index.finish_into(&mut self.buf);
        let index_handle = Self::seal_block(&mut self.buf, start);
        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_SIZE);
        filter_handle.encode(&mut footer);
        index_handle.encode(&mut footer);
        footer.resize(FOOTER_SIZE - 8, 0);
        put_fixed64(&mut footer, TABLE_MAGIC);
        self.buf.extend_from_slice(&footer);
        self.buf
    }
}

/// Names the file and block offset in a corruption message, so reports
/// say *which* block was bad.
fn at_block(file: FileId, offset: u64, e: Error) -> Error {
    match e {
        Error::Corruption(msg) => {
            Error::Corruption(format!("file {file} block at offset {offset}: {msg}"))
        }
        other => other,
    }
}

/// Reads one block and its trailer, verifies it and truncates the buffer
/// to the contents in place. Every on-disk block read goes through here;
/// a failed check bumps the host's checksum-failure counter.
fn read_verified(
    ctx: &mut crate::context::StoreCtx,
    file: FileId,
    handle: BlockHandle,
    kind: IoKind,
) -> Result<Vec<u8>> {
    let mut raw = ctx.fs.read_file(
        file,
        handle.offset,
        handle.size + BLOCK_TRAILER_SIZE as u64,
        kind,
    )?;
    let len = verify_block(&raw).map_err(|e| {
        ctx.fs.disk_mut().stats_mut().faults.checksum_failures += 1;
        at_block(file, handle.offset, e)
    })?;
    raw.truncate(len);
    Ok(raw)
}

/// Checks one block image (`contents | type byte | masked CRC32C LE`)
/// and returns the length of its contents, which are the image's prefix:
/// callers truncate or slice instead of copying.
pub fn verify_block(contents_and_trailer: &[u8]) -> Result<usize> {
    let Some(split) = contents_and_trailer.len().checked_sub(BLOCK_TRAILER_SIZE) else {
        return corruption("block shorter than trailer");
    };
    let (contents, trailer) = contents_and_trailer.split_at(split);
    let ty = trailer[0];
    if ty != 0 {
        return corruption("unknown block type");
    }
    let stored = u32::from_le_bytes([trailer[1], trailer[2], trailer[3], trailer[4]]);
    let actual = crc32c::mask(crc32c::extend(crc32c::crc32c(contents), &[ty]));
    if stored != actual {
        return corruption("block checksum mismatch");
    }
    Ok(split)
}

/// Parses the footer of a table, returning (filter handle, index handle).
pub fn parse_footer(footer: &[u8]) -> Result<(BlockHandle, BlockHandle)> {
    if footer.len() != FOOTER_SIZE {
        return corruption("bad footer size");
    }
    if decode_fixed64(&footer[FOOTER_SIZE - 8..]) != TABLE_MAGIC {
        return corruption("bad table magic");
    }
    let (filter, n) = BlockHandle::decode(footer)?;
    let (index, _) = BlockHandle::decode(&footer[n..])?;
    Ok((filter, index))
}

/// An open table reader: index and bloom filter pinned in memory, data
/// blocks fetched on demand through the shared context's block cache.
#[derive(Debug)]
pub struct Table {
    file: FileId,
    file_size: u64,
    index_offset: u64,
    index: Arc<Block>,
    bloom: Option<BloomFilter>,
}

impl Table {
    /// Opens a table by reading its footer, index and filter (charged as
    /// `Meta` reads; amortised by the table cache).
    pub fn open(ctx: &SharedCtx, file: FileId, file_size: u64) -> Result<Table> {
        let mut guard = ctx.lock();
        let footer = guard.fs.read_file(
            file,
            file_size - FOOTER_SIZE as u64,
            FOOTER_SIZE as u64,
            IoKind::Meta,
        )?;
        let (filter_handle, index_handle) = parse_footer(&footer).map_err(|e| match e {
            Error::Corruption(msg) => Error::Corruption(format!("file {file} footer: {msg}")),
            other => other,
        })?;
        let index = Arc::new(
            Block::new(read_verified(&mut guard, file, index_handle, IoKind::Meta)?)
                .map_err(|e| at_block(file, index_handle.offset, e))?,
        );
        let bloom = if filter_handle.size > 0 {
            BloomFilter::decode(&read_verified(
                &mut guard,
                file,
                filter_handle,
                IoKind::Meta,
            )?)
        } else {
            None
        };
        Ok(Table {
            file,
            file_size,
            index_offset: index_handle.offset,
            index,
            bloom,
        })
    }

    /// File id this reader serves.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// On-disk file size.
    pub fn file_size(&self) -> u64 {
        self.file_size
    }

    /// Whether the bloom filter definitively excludes `ukey`.
    pub fn bloom_excludes(&self, ukey: &[u8]) -> bool {
        self.bloom.as_ref().is_some_and(|b| !b.may_contain(ukey))
    }

    fn read_block(
        &self,
        ctx: &SharedCtx,
        handle: BlockHandle,
        kind: IoKind,
        use_cache: bool,
    ) -> Result<Arc<Block>> {
        let key = (self.file, handle.offset);
        let mut guard = ctx.lock();
        if use_cache {
            if let Some(block) = guard.block_cache.get(&key) {
                return Ok(block);
            }
        }
        let block = Arc::new(
            Block::new(read_verified(&mut guard, self.file, handle, kind)?)
                .map_err(|e| at_block(self.file, handle.offset, e))?,
        );
        if use_cache {
            let charge = block.size() as u64;
            guard.block_cache.insert(key, Arc::clone(&block), charge);
        }
        Ok(block)
    }

    /// Point lookup: returns the first entry with internal key >= `ikey`
    /// if it lives in the block the index points at. The caller checks
    /// user-key equality and sequence visibility.
    pub fn get(&self, ctx: &SharedCtx, ikey: &[u8]) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        if self.bloom_excludes(user_key(ikey)) {
            return Ok(None);
        }
        let mut index_iter = self.index.iter();
        index_iter.seek(ikey);
        if !index_iter.valid() {
            index_iter
                .status()
                .map_err(|e| at_block(self.file, self.index_offset, e))?;
            return Ok(None);
        }
        let (handle, _) = BlockHandle::decode(index_iter.value())?;
        let block = self.read_block(ctx, handle, IoKind::Get, true)?;
        let mut it = block.iter();
        it.seek(ikey);
        if it.valid() {
            Ok(Some((it.key().to_vec(), it.value().to_vec())))
        } else {
            it.status()
                .map_err(|e| at_block(self.file, handle.offset, e))?;
            Ok(None)
        }
    }

    /// An iterator over the whole table; blocks are fetched lazily and
    /// charged with the supplied `kind` (Scan for user scans,
    /// CompactionRead when driven by a compaction).
    pub fn iter(self: &Arc<Self>, ctx: SharedCtx, kind: IoKind) -> TableIterator {
        TableIterator {
            table: Arc::clone(self),
            ctx,
            kind,
            // Compactions stream every block exactly once: bypass the
            // block cache so they neither pollute nor benefit from it
            // (LevelDB's `fill_cache=false` read option).
            use_cache: !matches!(kind, IoKind::CompactionRead),
            index_iter: self.index.iter(),
            block_iter: None,
            block_offset: 0,
            error: None,
        }
    }
}

/// Two-level iterator: index block -> data blocks.
#[derive(Debug)]
pub struct TableIterator {
    table: Arc<Table>,
    ctx: SharedCtx,
    kind: IoKind,
    use_cache: bool,
    index_iter: BlockIter,
    block_iter: Option<BlockIter>,
    /// File offset of the block `block_iter` walks.
    block_offset: u64,
    error: Option<Error>,
}

impl TableIterator {
    fn load_block(&mut self) {
        self.block_iter = None;
        if !self.index_iter.valid() {
            if let Err(e) = self.index_iter.status() {
                self.error = Some(at_block(self.table.file, self.table.index_offset, e));
            }
            return;
        }
        match BlockHandle::decode(self.index_iter.value()).and_then(|(h, _)| {
            self.block_offset = h.offset;
            self.table
                .read_block(&self.ctx, h, self.kind, self.use_cache)
        }) {
            Ok(block) => self.block_iter = Some(block.iter()),
            Err(e) => self.error = Some(e),
        }
    }

    /// Skips forward through index entries until the data iterator is
    /// valid or the index is exhausted.
    fn skip_empty_blocks(&mut self) {
        while let Some(b) = self.block_iter.as_ref().filter(|b| !b.valid()) {
            // A block that stopped on a malformed entry ends the scan
            // with an error: its unread tail must not look like a clean
            // end (a compaction would install outputs missing it).
            if let Err(e) = b.status() {
                self.error = Some(at_block(self.table.file, self.block_offset, e));
                self.block_iter = None;
                return;
            }
            if !self.index_iter.valid() {
                self.block_iter = None;
                return;
            }
            self.index_iter.next();
            self.load_block();
            if let Some(b) = self.block_iter.as_mut() {
                b.seek_to_first();
            }
        }
    }
}

impl InternalIterator for TableIterator {
    fn valid(&self) -> bool {
        self.block_iter.as_ref().is_some_and(|b| b.valid())
    }

    fn seek_to_first(&mut self) {
        self.index_iter.seek_to_first();
        self.load_block();
        if let Some(b) = self.block_iter.as_mut() {
            b.seek_to_first();
        }
        self.skip_empty_blocks();
    }

    fn seek(&mut self, target: &[u8]) {
        self.index_iter.seek(target);
        self.load_block();
        if let Some(b) = self.block_iter.as_mut() {
            b.seek(target);
        }
        self.skip_empty_blocks();
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        if let Some(b) = self.block_iter.as_mut() {
            b.next();
        }
        self.skip_empty_blocks();
    }

    fn key(&self) -> &[u8] {
        self.block_iter.as_ref().expect("valid iterator").key()
    }

    fn value(&self) -> &[u8] {
        self.block_iter.as_ref().expect("valid iterator").value()
    }

    fn take_error(&mut self) -> Option<Error> {
        self.error.take()
    }
}

/// Parses a fully materialised table (compaction reads files whole in one
/// sequential sweep) into its (internal key, value) entries.
pub fn scan_all(data: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    if data.len() < FOOTER_SIZE {
        return corruption("table smaller than footer");
    }
    let (_, index_handle) = parse_footer(&data[data.len() - FOOTER_SIZE..])?;
    let index = Arc::new(Block::new(verified_slice(data, index_handle)?.to_vec())?);
    let mut out = Vec::new();
    let mut ii = index.iter();
    ii.seek_to_first();
    while ii.valid() {
        let (h, _) = BlockHandle::decode(ii.value())?;
        let block = Arc::new(Block::new(verified_slice(data, h)?.to_vec())?);
        let mut bi = block.iter();
        bi.seek_to_first();
        while bi.valid() {
            out.push((bi.key().to_vec(), bi.value().to_vec()));
            bi.next();
        }
        bi.status()?;
        ii.next();
    }
    ii.status()?;
    Ok(out)
}

/// The verified contents of the block `h` names inside a whole table
/// image.
fn verified_slice(data: &[u8], h: BlockHandle) -> Result<&[u8]> {
    let start = h.offset as usize;
    let end = start
        .checked_add(h.size as usize)
        .and_then(|end| end.checked_add(BLOCK_TRAILER_SIZE));
    let Some(image) = end.and_then(|end| data.get(start..end)) else {
        return corruption(format!("block at offset {} out of range", h.offset));
    };
    let len = verify_block(image)?;
    Ok(&image[..len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::new_ctx;
    use crate::filestore::FileStore;
    use smr_sim::{Disk, Extent, Layout, TimeModel};

    const MB: u64 = 1 << 20;

    fn ik(k: &str, seq: u64) -> Vec<u8> {
        make_internal_key(k.as_bytes(), seq, ValueType::Value)
    }

    fn build_table(n: usize) -> Vec<u8> {
        let mut b = TableBuilder::new(TableOptions {
            block_size: 512,
            ..Default::default()
        });
        for i in 0..n {
            b.add(
                &ik(&format!("key{i:06}"), 1),
                format!("value{i:06}").as_bytes(),
            );
        }
        b.finish()
    }

    fn ctx_with_file(data: &[u8]) -> SharedCtx {
        let cap = 64 * MB;
        let disk = Disk::new(cap, Layout::Hdd, TimeModel::hdd_st1000dm003(cap));
        let mut fs = FileStore::new(disk, 4 * MB);
        fs.write_file_at(1, Extent::new(0, data.len() as u64), data, IoKind::Flush)
            .unwrap();
        new_ctx(fs, 8 * MB, 100)
    }

    #[test]
    fn build_and_scan_all() {
        let data = build_table(500);
        let entries = scan_all(&data).unwrap();
        assert_eq!(entries.len(), 500);
        for (i, (k, v)) in entries.iter().enumerate() {
            assert_eq!(user_key(k), format!("key{i:06}").as_bytes());
            assert_eq!(v, format!("value{i:06}").as_bytes());
        }
    }

    #[test]
    fn open_and_get() {
        let data = build_table(500);
        let size = data.len() as u64;
        let ctx = ctx_with_file(&data);
        let table = Table::open(&ctx, 1, size).unwrap();
        for i in [0usize, 1, 250, 498, 499] {
            let lk = types::lookup_key(format!("key{i:06}").as_bytes(), MAX_SEQUENCE);
            let (k, v) = table.get(&ctx, &lk).unwrap().expect("found");
            assert_eq!(user_key(&k), format!("key{i:06}").as_bytes());
            assert_eq!(v, format!("value{i:06}").as_bytes());
        }
        // Bloom filter excludes absent keys without any block read.
        let before = ctx.lock().fs.disk().stats().kind(IoKind::Get).ops;
        let lk = types::lookup_key(b"zzz-absent", MAX_SEQUENCE);
        assert!(table.bloom_excludes(b"zzz-absent"));
        assert!(table.get(&ctx, &lk).unwrap().is_none());
        let after = ctx.lock().fs.disk().stats().kind(IoKind::Get).ops;
        assert_eq!(before, after, "bloom miss must avoid block reads");
    }

    #[test]
    fn iterator_full_scan_and_seek() {
        let data = build_table(300);
        let size = data.len() as u64;
        let ctx = ctx_with_file(&data);
        let table = Arc::new(Table::open(&ctx, 1, size).unwrap());
        let mut it = table.iter(Arc::clone(&ctx), IoKind::Scan);
        it.seek_to_first();
        let mut count = 0;
        while it.valid() {
            count += 1;
            it.next();
        }
        assert_eq!(count, 300);
        it.seek(&types::lookup_key(b"key000150", MAX_SEQUENCE));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key000150");
        assert!(it.take_error().is_none());
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let data = build_table(500);
        let size = data.len() as u64;
        let ctx = ctx_with_file(&data);
        let table = Table::open(&ctx, 1, size).unwrap();
        let lk = types::lookup_key(b"key000250", MAX_SEQUENCE);
        table.get(&ctx, &lk).unwrap().unwrap();
        let ops_after_first = ctx.lock().fs.disk().stats().kind(IoKind::Get).ops;
        table.get(&ctx, &lk).unwrap().unwrap();
        let ops_after_second = ctx.lock().fs.disk().stats().kind(IoKind::Get).ops;
        assert_eq!(ops_after_first, ops_after_second);
    }

    #[test]
    fn corrupt_block_detected() {
        let mut data = build_table(100);
        // Flip a byte in the first data block.
        data[10] ^= 0xFF;
        assert!(scan_all(&data).is_err());
    }

    #[test]
    fn corrupt_data_block_reports_file_and_offset() {
        let mut data = build_table(100);
        // Flip a byte in the first data block: the open succeeds (index
        // and footer are intact) but reading the block must fail with
        // the file and offset named, and the failure counted.
        data[10] ^= 0xFF;
        let size = data.len() as u64;
        let ctx = ctx_with_file(&data);
        let table = Table::open(&ctx, 1, size).unwrap();
        let lk = types::lookup_key(b"key000000", MAX_SEQUENCE);
        let err = table.get(&ctx, &lk).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("file 1"), "{msg}");
        assert!(msg.contains("offset 0"), "{msg}");
        assert_eq!(ctx.lock().fs.disk().stats().faults.checksum_failures, 1);
    }

    /// A one-data-block table holding `contents` verbatim under a valid
    /// CRC, indexed under a key past every probe.
    fn table_with_raw_block(contents: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let handle = TableBuilder::write_raw_block(&mut buf, contents);
        let mut index = BlockBuilder::new(1);
        index.add(&ik("zzz", MAX_SEQUENCE), &handle.encoded());
        let index_handle = TableBuilder::write_raw_block(&mut buf, &index.finish());
        let mut footer = Vec::with_capacity(FOOTER_SIZE);
        BlockHandle { offset: 0, size: 0 }.encode(&mut footer);
        index_handle.encode(&mut footer);
        footer.resize(FOOTER_SIZE - 8, 0);
        put_fixed64(&mut footer, TABLE_MAGIC);
        buf.extend_from_slice(&footer);
        buf
    }

    /// CRC-valid blocks with malformed entries, and a key each lookup
    /// must reach: one whose last entry is cut short, one whose only key
    /// is 3 bytes (shorter than the 8-byte trailer).
    fn forged_blocks() -> [(Vec<u8>, Vec<u8>); 2] {
        let mut b = BlockBuilder::new(16);
        for i in 0..4 {
            b.add(&ik(&format!("key{i}"), 1), b"value-bytes");
        }
        let full = b.finish();
        let entries = &full[..full.len() - 8];
        let mut truncated = entries[..entries.len() - 3].to_vec();
        let mut short_key = vec![0, 3, 1, b'a', b'b', b'c', b'v'];
        for block in [&mut truncated, &mut short_key] {
            crate::util::coding::put_fixed32(block, 0);
            crate::util::coding::put_fixed32(block, 1);
        }
        [
            (truncated, types::lookup_key(b"key3", MAX_SEQUENCE)),
            (short_key, types::lookup_key(b"abc", MAX_SEQUENCE)),
        ]
    }

    #[test]
    fn malformed_block_fails_get_and_iteration_with_file_and_offset() {
        for (contents, probe) in forged_blocks() {
            let data = table_with_raw_block(&contents);
            let size = data.len() as u64;
            let ctx = ctx_with_file(&data);
            let table = Arc::new(Table::open(&ctx, 1, size).unwrap());
            let err = table.get(&ctx, &probe).unwrap_err();
            let msg = format!("{err}");
            assert!(matches!(err, Error::Corruption(_)), "{msg}");
            assert!(msg.contains("file 1 block at offset 0"), "{msg}");
            // The CRC held: this is not a checksum failure.
            assert_eq!(ctx.lock().fs.disk().stats().faults.checksum_failures, 0);

            let mut it = table.iter(Arc::clone(&ctx), IoKind::CompactionRead);
            it.seek_to_first();
            while it.valid() {
                it.next();
            }
            let err = it
                .take_error()
                .expect("iteration must report the bad block");
            assert!(format!("{err}").contains("file 1 block at offset 0"));

            assert!(matches!(scan_all(&data), Err(Error::Corruption(_))));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = build_table(10);
        let n = data.len();
        data[n - 1] ^= 0xFF;
        assert!(scan_all(&data).is_err());
    }

    #[test]
    fn footer_roundtrip() {
        let f = BlockHandle {
            offset: 123,
            size: 456,
        };
        let i = BlockHandle {
            offset: 789,
            size: 1011,
        };
        let mut footer = Vec::new();
        f.encode(&mut footer);
        i.encode(&mut footer);
        footer.resize(FOOTER_SIZE - 8, 0);
        put_fixed64(&mut footer, TABLE_MAGIC);
        let (f2, i2) = parse_footer(&footer).unwrap();
        assert_eq!(f, f2);
        assert_eq!(i, i2);
    }

    #[test]
    fn separator_respects_internal_order() {
        use crate::types::internal_compare;
        use std::cmp::Ordering;
        let last = ik("foo", 7);
        let next = ik("fz", 3);
        let sep = separator(&last, &next);
        assert_ne!(internal_compare(&last, &sep), Ordering::Greater);
        assert_eq!(internal_compare(&sep, &next), Ordering::Less);
        // Equal user keys: separator stays the last key itself.
        let sep = separator(&ik("same", 9), &ik("same", 2));
        assert_eq!(sep, ik("same", 9));
    }

    #[test]
    fn empty_table() {
        let b = TableBuilder::new(TableOptions::default());
        let data = b.finish();
        // An empty table still has a valid footer and empty index.
        assert!(scan_all(&data).unwrap().is_empty());
    }
}
