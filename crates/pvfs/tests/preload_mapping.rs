//! The fs mapping is still checked with preloaded blocks as descriptors:
//! a descriptor is keyed by its physical block and carries its own file
//! offset, so a read still goes lblk → pblk → content, and a mapping bug
//! still serves bytes that `Content::matches` rejects.

use pvfs::{Content, Fid};
use sim_disk::{BlockFs, Ino, BLOCK_SIZE};

const BLOCKS: u64 = 16;

/// Two files whose preloads alternate block by block, so file A's lblk `l`
/// sits at pblk `2l` and file B's at `2l + 1`.
fn interleaved() -> (BlockFs, [(Fid, Ino); 2]) {
    let mut fs = BlockFs::new(1024);
    let files = [(Fid(3), fs.create("a").unwrap()), (Fid(8), fs.create("b").unwrap())];
    for l in 0..BLOCKS {
        for (fid, ino) in files {
            fs.write_described(ino, Content::new(fid, l * BLOCK_SIZE as u64), BLOCK_SIZE).unwrap();
        }
    }
    (fs, files)
}

fn block(fs: &BlockFs, ino: Ino, lblk: u64) -> Vec<u8> {
    let mut out = Vec::new();
    fs.read_append(ino, lblk * BLOCK_SIZE as u64, BLOCK_SIZE, &mut out).unwrap();
    out
}

#[test]
fn every_block_reads_as_its_own_files_content() {
    let (fs, files) = interleaved();
    assert_eq!(fs.stored_blocks(), 0);
    for (k, (fid, ino)) in files.into_iter().enumerate() {
        for l in 0..BLOCKS {
            assert_eq!(fs.pblk_of(ino, l), Some(2 * l + k as u64), "{fid:?} lblk {l}");
            let want = Content::new(fid, l * BLOCK_SIZE as u64).generate(BLOCK_SIZE);
            assert_eq!(block(&fs, ino, l), want, "{fid:?} lblk {l}");
        }
    }
}

#[test]
fn a_read_through_the_wrong_blocks_descriptor_fails_the_pattern_check() {
    let (fs, files) = interleaved();
    let [(fid_a, a), (_, b)] = files;
    for l in 1..BLOCKS {
        let own = Content::new(fid_a, l * BLOCK_SIZE as u64);
        assert!(own.matches(&block(&fs, a, l)));
        // What a mapping bug would serve for A's lblk `l`: the block at
        // pblk `l` read as if it were lblk (A's lblk l/2 or B's), the
        // other file's block, and A's neighbouring block.
        let (owner, owner_lblk) = if l % 2 == 0 { (a, l / 2) } else { (b, l / 2) };
        for wrong in [block(&fs, owner, owner_lblk), block(&fs, b, l), block(&fs, a, l - 1)] {
            assert!(!own.matches(&wrong), "lblk {l} accepted a wrong block");
        }
    }
}
