//! Output digests pinned for the default seed: each op's digest of its
//! outputs (see `OpStats::digest`). Any change to a schedule, a bill or a
//! replay shows up here as a failed op.

use crate::workload::Workload;

/// The seed whose outputs are pinned.
pub const DEFAULT_SEED: u64 = 0;

const PLAN_400: &[u64] = &[
    0xa3cc_6653_df44_460e,
    0xadc4_4a79_2ac0_a4ff,
    0xc0b9_4bc8_8ef4_ccdd,
    0x9f89_3e7a_3572_10e0,
    0xc441_ca5a_c2d7_51d8,
    0x2301_2dcf_2269_c6c2,
    0x62e1_c6de_3742_eafe,
    0x7f83_68b6_5fb3_0bf2,
    0x73fc_8636_0bc2_035e,
    0x0504_cdbe_c005_c448,
    0x2d30_6a0b_b578_7f5a,
    0xe8e3_7c90_3b08_fdb9,
    0xcec8_ab02_fa63_4dea,
    0xd4c0_45bb_76d9_510a,
    0x28ef_e2f7_8ac4_0331,
    0xea19_4679_889f_5e4c,
    0x4301_afbe_f298_0e1f,
    0x41a0_d92e_33dc_a5f4,
    0x4238_cc97_273a_0a32,
    0x0d05_d101_432d_9899,
    0x1af1_a2ac_5273_40b1,
    0x2302_d53d_873b_2229,
    0x597e_cfa2_9241_1fc1,
    0x5bfb_cf35_7bc3_a171,
];
const REFINE_60: &[u64] = &[
    0xe32a_1811_a196_d6f4,
    0xad48_4f7f_5f28_e29c,
    0x4319_0c3e_3fe3_8d68,
    0x5249_9242_9229_e5a0,
    0x9bcb_8948_8fc9_67ea,
    0x1b14_8dbf_378d_1453,
    0x1801_99c6_7832_7cd4,
    0x11c8_2434_9794_fd7e,
    0x65e3_d8b5_f7b2_3d22,
    0xf185_b263_f89a_9d3e,
    0x03e0_ba87_4308_ce98,
    0xbab1_273c_24f4_42ae,
];
const EXECUTE_400: &[u64] = &[
    0x7192_9e0a_b463_bba8,
    0xfa70_7081_a860_cd63,
    0x5ed4_35f7_0936_0156,
    0x310e_5901_80c1_a7e3,
    0xd3fb_652f_a07a_4f7c,
    0xb174_bbcd_5b63_c05e,
    0x2e8a_e229_1fec_1a16,
    0x9074_15cd_0e31_d2bb,
    0x9105_5ec5_e403_188c,
    0xad02_2dcd_8db4_a84c,
    0x29ea_1d4a_25dc_0e51,
    0xbb75_b4f3_d011_5415,
    0xcdd6_197c_8b80_3c5b,
    0xd5de_b7c4_a378_8bbb,
    0xd7c8_319a_fac3_1335,
    0xc820_ddfa_ae9c_ad69,
    0xbacf_9363_7d9d_1a96,
    0xe7fb_4014_d0fb_50d2,
    0x29cf_a267_a124_3cca,
    0x6d3e_0df5_dd69_8bdc,
    0x81e7_5982_0631_b11a,
    0xc17b_f00d_12ec_ba72,
    0x1c89_077e_1ae6_642c,
    0xb2f5_1f1a_deab_78ed,
];

/// The pinned per-op digests of `w`, if `seed` is the default seed.
pub fn digests(w: Workload, seed: u64) -> Option<&'static [u64]> {
    if seed != DEFAULT_SEED {
        return None;
    }
    Some(match w {
        Workload::Plan400 => PLAN_400,
        Workload::Refine60 => REFINE_60,
        Workload::Execute400 => EXECUTE_400,
    })
}
