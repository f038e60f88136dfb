//! The vector width of the hot kernels: the convolution's forward,
//! weight-gradient and input-gradient register tiles ([`crate::conv`]) and
//! the GEMM microkernel ([`crate::gemm`]).
//!
//! One source, two compiles, picked once per process. Each kernel body is
//! an `#[inline(always)]` function called from two thin wrappers: a plain
//! one, compiled for the target's baseline features (SSE2 on x86-64, four
//! `f32` lanes), and an `unsafe fn` under `#[target_feature(enable =
//! "avx2")]` (eight lanes). [`Width::host`] picks the wrapper; nobody
//! chooses it, so there is no flag, feature or environment variable.
//!
//! The two compiles are bit-identical. Every output element keeps one
//! serial chain of adds in a fixed order, and Rust neither contracts
//! `a*b + c` into an FMA nor reassociates float adds, so a wider compile
//! only runs more of those chains side by side. Only `avx2` is enabled:
//! `fma` would change nothing, since no code asks for a fused add. The
//! differential tests of both kernels run each compile against its
//! oracle; on a host without AVX2 they check the plain compile only.

/// Which compile of the hot kernels runs. Says AVX2 only on a host that
/// has it, so the kernels may call their `avx2` wrappers on its word.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Width {
    avx2: bool,
}

impl Width {
    /// The baseline compile, which runs on every host.
    pub(crate) const PLAIN: Width = Width { avx2: false };

    /// The compile this process runs: AVX2 where the host has it. std
    /// caches the detection, so a call costs one atomic load.
    pub(crate) fn host() -> Width {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Width { avx2: true };
        }
        Width::PLAIN
    }

    /// Whether this is the AVX2 compile.
    pub(crate) fn avx2(self) -> bool {
        self.avx2
    }
}

/// The compile of the hot kernels this process runs, for reports:
/// `"avx2"` (eight `f32` lanes) or `"baseline"` (the target's default
/// features; four lanes on x86-64).
pub fn kernel_width() -> &'static str {
    if Width::host().avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// Every compile a differential test can run on this host: the plain one,
/// then the AVX2 one where the host has it. Prints a skip line when it
/// does not, so a run on such a host says what it left unchecked.
#[cfg(test)]
pub(crate) fn compiles_on_host(what: &str) -> Vec<Width> {
    let host = Width::host();
    if host.avx2() {
        vec![Width::PLAIN, host]
    } else {
        println!("skip: {what}: no AVX2 on this host, the plain compile alone is checked");
        vec![Width::PLAIN]
    }
}
