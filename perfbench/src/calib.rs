//! The calibration kernel: a fixed, branchy byte scan that depends on no
//! FluX code.
//!
//! Wall-clock rates on a shared host drift between runs, so in-process
//! throughput is reported as a ratio to this kernel, timed on the same
//! thread, over the same bytes, interleaved with the measured ops. The
//! kernel walks the input like a naive tag scanner: it tracks `<`/`</`
//! depth and hashes each tag name into a small histogram, so its branches
//! and memory traffic resemble a tokenizer's without sharing its code.
//!
//! On x86-64 the loop is written in assembly behind a 64-byte alignment:
//! a branchy loop compiled from Rust changes speed by up to a fifth when
//! unrelated code moves it to another address, which would shift every
//! ratio between two builds of the program. Elsewhere the portable version
//! runs; the tests check that both compute the same result.

use std::time::Instant;

/// One pass of the kernel over `bytes`; the result only keeps the work
/// observable.
#[inline(never)]
pub fn scan(bytes: &[u8]) -> u64 {
    let bytes = std::hint::black_box(bytes);
    #[cfg(target_arch = "x86_64")]
    return scan_x86_64(bytes);
    #[cfg(not(target_arch = "x86_64"))]
    return scan_portable(bytes);
}

/// The kernel in Rust: the reference for the assembly version.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn scan_portable(bytes: &[u8]) -> u64 {
    let mut names = [0u32; 256];
    let (mut depth, mut state, mut h) = (0i64, 0u8, 0u32);
    for &b in bytes {
        match state {
            // Text: wait for a tag.
            0 => {
                if b == b'<' {
                    state = 1;
                }
            }
            // Just after `<`: an end tag closes a level, anything else opens one.
            1 => {
                if b == b'/' {
                    depth -= 1;
                    h = 0;
                } else {
                    depth += 1;
                    h = u32::from(b);
                }
                state = 2;
            }
            // Tag name: hash it until a space or `>`.
            2 => {
                if b == b'>' || b == b' ' {
                    names[(h & 255) as usize] += 1;
                    state = if b == b'>' { 0 } else { 3 };
                } else {
                    h = h.wrapping_mul(31).wrapping_add(u32::from(b));
                }
            }
            // Rest of a tag.
            _ => {
                if b == b'>' {
                    state = 0;
                }
            }
        }
    }
    names.iter().map(|&c| u64::from(c)).sum::<u64>() ^ depth as u64
}

/// The kernel's loop in assembly, at a fixed 64-byte alignment; same
/// states and result as [`scan_portable`].
#[cfg(target_arch = "x86_64")]
fn scan_x86_64(bytes: &[u8]) -> u64 {
    let mut names = [0u32; 256];
    let depth: i64;
    let range = bytes.as_ptr_range();
    // SAFETY: the loop reads only bytes in `range.start..range.end`, one at
    // a time, and stops when the cursor reaches `range.end`. The only write
    // is `names[cl]` with an index below 256, into the 256-entry local
    // array whose pointer `rdi` holds. Every register the assembly changes
    // is declared, and it does not touch the stack.
    unsafe {
        std::arch::asm!(
            "xor r8d, r8d",
            "xor ecx, ecx",
            "xor r10d, r10d",
            ".p2align 6",
            // Next byte; state 0 is text.
            "2:",
            "cmp rsi, rdx",
            "jae 9f",
            "movzx eax, byte ptr [rsi]",
            "inc rsi",
            "test r10d, r10d",
            "jnz 3f",
            "cmp eax, 60",
            "jne 2b",
            "mov r10d, 1",
            "jmp 2b",
            // State 1: just after `<`.
            "3:",
            "cmp r10d, 1",
            "jne 5f",
            "mov r10d, 2",
            "cmp eax, 47",
            "jne 4f",
            "dec r8",
            "xor ecx, ecx",
            "jmp 2b",
            "4:",
            "inc r8",
            "mov ecx, eax",
            "jmp 2b",
            // State 2: tag name.
            "5:",
            "cmp r10d, 2",
            "jne 7f",
            "cmp eax, 62",
            "je 6f",
            "cmp eax, 32",
            "je 6f",
            "imul ecx, ecx, 31",
            "add ecx, eax",
            "jmp 2b",
            "6:",
            "movzx r11d, cl",
            "inc dword ptr [rdi + r11*4]",
            "xor r10d, r10d",
            "mov r11d, 3",
            "cmp eax, 32",
            "cmove r10d, r11d",
            "jmp 2b",
            // State 3: rest of a tag.
            "7:",
            "cmp eax, 62",
            "jne 2b",
            "xor r10d, r10d",
            "jmp 2b",
            "9:",
            inout("rsi") range.start => _,
            in("rdx") range.end,
            in("rdi") names.as_mut_ptr(),
            out("r8") depth,
            out("rax") _,
            out("rcx") _,
            out("r10") _,
            out("r11") _,
            options(nostack),
        );
    }
    names.iter().map(|&c| u64::from(c)).sum::<u64>() ^ depth as u64
}

/// Bytes the kernel scans per timing, so that short documents still give a
/// timing well above the clock's resolution.
const MIN_BYTES: usize = 8 << 20;

/// Time the kernel over `bytes`, repeated until at least 8 MiB were
/// scanned; returns (bytes scanned, seconds).
pub fn timed(bytes: &[u8]) -> (usize, f64) {
    let reps = MIN_BYTES.div_ceil(bytes.len().max(1));
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(scan(bytes));
    }
    (reps * bytes.len(), t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_balances_depth_on_well_formed_input() {
        let doc = b"<a><b x='1'>t</b><c></c></a>";
        // Six tag names hashed (end tags too), depth back to zero.
        assert_eq!(scan_portable(doc), 6);
        assert_eq!(scan(doc), 6);
        assert_eq!(scan(b""), 0);
    }

    #[test]
    fn assembly_and_portable_kernels_agree() {
        let (doc, _) = crate::inputs::xmark(256 << 10, 9);
        let cases: [&[u8]; 6] = [doc.as_bytes(), b"<", b"</", b"<a", b"<a b>text</a> <<>/>", b"x"];
        for bytes in cases {
            assert_eq!(
                scan(bytes),
                scan_portable(bytes),
                "{:?}",
                String::from_utf8_lossy(&bytes[..bytes.len().min(20)])
            );
        }
        // Unbalanced input leaves a non-zero depth in the result.
        assert_ne!(scan(b"<a><b>"), scan(b"<a></b>"));
    }

    #[test]
    fn timing_repeats_short_inputs() {
        let (bytes, secs) = timed(b"<a>x</a>");
        assert!(bytes >= MIN_BYTES);
        assert!(secs > 0.0);
    }
}
