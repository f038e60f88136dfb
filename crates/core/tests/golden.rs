//! Golden bytes of the `LTGL` ledger image, recorded at commit `7db9e55`
//! before `persist.rs` was moved onto the shared `Reader`. The benchmark
//! digests are FNV-1a over exactly these bytes, so a failure here is a
//! changed `# exact` digest on every workload.

use learning_tangle::persist;
use std::sync::Arc;
use tangle_ledger::Tangle;
use tinynn::ParamVec;

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// Independent FNV-1a, so the digest does not lean on the code under test.
fn reference_fnv(b: &[u8]) -> u64 {
    b.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
        (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const LTGL: &str = concat!(
    "4c54474c0103000000ffffffffffffffff00000000000000000000190000004c",
    "54505601020000000000003f000000bff5da862665f2ac540300000000000000",
    "0100000000000000010000000000190000004c54505601020000000000803f00",
    "000040d801a32dee697a09040000000000000002000000000000000200000000",
    "0001000000190000004c5450560102000000000040400000804005144059d760",
    "2959",
);

#[test]
fn golden_ltgl_three_transactions() {
    let mut t = Tangle::new(Arc::new(ParamVec(vec![0.5, -0.5])));
    let a = t
        .add_meta(Arc::new(ParamVec(vec![1.0, 2.0])), vec![t.genesis()], 3, 1)
        .unwrap();
    t.add_meta(
        Arc::new(ParamVec(vec![3.0, 4.0])),
        vec![a, t.genesis()],
        4,
        2,
    )
    .unwrap();
    let image = persist::to_bytes(&t);
    assert_eq!(hex(&image), LTGL);
    assert_eq!(reference_fnv(&image), 0x39c9_57a7_c3f1_db9f);
    let back = persist::from_bytes(&image).expect("golden image parses");
    assert_eq!(persist::to_bytes(&back), image);
}
