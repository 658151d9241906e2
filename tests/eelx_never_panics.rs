//! `.eelx` images never panic, from bytes to a run. A corrupted image
//! decodes to a `FormatError` or to a valid image, and every image that
//! decodes goes through analysis, QPT instrumentation, both emits and
//! a timed and a functional simulation with typed errors only.

use eel_repro::core::Scheduler;
use eel_repro::edit::{Cfg, EditSession, Executable, Symbol};
use eel_repro::pipeline::MachineModel;
use eel_repro::qpt::{ProfileOptions, Profiler};
use eel_repro::sim::{run, DCacheConfig, ICacheConfig, RunConfig, TimingConfig};
use eel_repro::workloads::{spec95, BuildOptions};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small valid image: one SPEC95 body, one iteration.
fn valid_image() -> &'static Executable {
    static IMAGE: OnceLock<Executable> = OnceLock::new();
    IMAGE.get_or_init(|| {
        spec95()[0].build(&BuildOptions {
            iterations: Some(1),
            optimize: None,
        })
    })
}

/// One corruption of the valid image's bytes.
#[derive(Debug, Clone)]
enum Corruption {
    /// XOR one byte with a nonzero mask.
    Flip { at: usize, mask: u8 },
    /// Cut the image at a position (in thousandths of its length).
    Truncate { per_mille: usize },
    /// Overwrite a length field: the text length, data length, bss
    /// size, symbol count or first symbol name length.
    Length { field: usize, value: u32 },
    /// Move the data segment to end `slack` bytes (rounded up to a
    /// word) below the top of the address space.
    DataAtTop { slack: u32 },
    /// Replace text words with arbitrary words, then serialize.
    Text { words: Vec<(usize, u32)> },
    /// Move the whole image up, so that the data segment ends `slack`
    /// bytes (rounded up to a word) below the top of the address space
    /// and the text ends `room` bytes (rounded up to a word) below the
    /// data, then replace text words: calls and branches can then
    /// target past 2^32, and a grown text can run past it.
    TextAtTop {
        slack: u32,
        room: u32,
        words: Vec<(usize, u32)>,
    },
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    let length = prop_oneof![
        prop::sample::select(vec![0u32, 1, 3, 0x8000_0000, u32::MAX - 3, u32::MAX]),
        any::<u32>(),
    ];
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Corruption::Flip { at, mask }),
        (0usize..1000).prop_map(|per_mille| Corruption::Truncate { per_mille }),
        (0usize..5, length).prop_map(|(field, value)| Corruption::Length { field, value }),
        (0u32..0x1000).prop_map(|slack| Corruption::DataAtTop { slack }),
        prop::collection::vec((any::<usize>(), any::<u32>()), 1..16)
            .prop_map(|words| Corruption::Text { words }),
        (
            1u32..0x1000,
            prop_oneof![0u32..0x100, 0u32..0x10_0000],
            prop::collection::vec((any::<usize>(), any::<u32>()), 1..16),
        )
            .prop_map(|(slack, room, words)| Corruption::TextAtTop { slack, room, words }),
    ]
}

/// Replaces text words of `text` with arbitrary words.
fn overwrite(text: &mut [u32], words: &[(usize, u32)]) {
    let n = text.len();
    for &(at, word) in words {
        text[at % n] = word;
    }
}

/// The byte offsets of the image's length fields, as laid out by
/// `Executable::to_bytes`.
fn length_fields(exe: &Executable) -> [usize; 5] {
    let text_len = 12;
    let data_len = text_len + 4 + 4 * exe.text_len() + 4;
    let bss = data_len + 4 + exe.data().len();
    let nsyms = bss + 8;
    [text_len, data_len, bss, nsyms, nsyms + 8]
}

/// The byte offset of the image's data base field.
fn data_base_field(exe: &Executable) -> usize {
    length_fields(exe)[1] - 4
}

fn corrupt(exe: &Executable, c: &Corruption) -> Vec<u8> {
    let mut bytes = exe.to_bytes();
    match c {
        Corruption::Flip { at, mask } => {
            let n = bytes.len();
            bytes[at % n] ^= mask;
        }
        Corruption::Truncate { per_mille } => bytes.truncate(bytes.len() * per_mille / 1000),
        Corruption::Length { field, value } => {
            let at = length_fields(exe)[*field];
            bytes[at..at + 4].copy_from_slice(&value.to_be_bytes());
        }
        Corruption::DataAtTop { slack } => {
            let data_bytes = exe.data().len() as u32 + exe.bss_size();
            let base = 0u32.wrapping_sub(data_bytes + slack) & !3;
            let at = data_base_field(exe);
            bytes[at..at + 4].copy_from_slice(&base.to_be_bytes());
        }
        Corruption::Text { words } => {
            let mut text = exe.text().to_vec();
            overwrite(&mut text, words);
            bytes = Executable::new(
                exe.text_base(),
                text,
                exe.data_base(),
                exe.data().to_vec(),
                exe.bss_size(),
                exe.entry(),
                exe.symbols().to_vec(),
            )
            .to_bytes();
        }
        Corruption::TextAtTop { slack, room, words } => {
            let data_bytes = exe.data().len() as u32 + exe.bss_size();
            let data_base = 0u32.wrapping_sub(data_bytes + slack) & !3;
            let text_base = (data_base - room - 4 * exe.text_len() as u32) & !3;
            let moved = |addr: u32| addr - exe.text_base() + text_base;
            let mut text = exe.text().to_vec();
            overwrite(&mut text, words);
            let symbols = exe
                .symbols()
                .iter()
                .map(|s| Symbol {
                    name: s.name.clone(),
                    addr: moved(s.addr),
                })
                .collect();
            bytes = Executable::new(
                text_base,
                text,
                data_base,
                exe.data().to_vec(),
                exe.bss_size(),
                moved(exe.entry()),
                symbols,
            )
            .to_bytes();
        }
    }
    bytes
}

/// Everything a decoded image goes through. Each step's error is
/// fine; a panic fails the test.
fn drive(exe: &Executable, model: &MachineModel) {
    let _ = Cfg::build(exe);
    if let Ok(mut session) = EditSession::new(exe) {
        let _profile = Profiler::instrument(&mut session, ProfileOptions::default());
        let _ = session.emit_unscheduled();
        let _ = session.emit(Scheduler::new(model.clone()).transform());
    }
    let functional = RunConfig {
        max_instructions: 10_000,
        ..RunConfig::default()
    };
    let _ = run(exe, None, &functional);
    let timed = RunConfig {
        timing: Some(TimingConfig {
            taken_branch_penalty: 1,
            icache: Some(ICacheConfig::default()),
            dcache: Some(DCacheConfig::default()),
        }),
        ..functional
    };
    let _ = run(exe, Some(model), &timed);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Bytes to a run: decoding returns `Ok` or a `FormatError`, and
    /// every decoded image gets through every layer without a panic.
    #[test]
    fn corrupted_images_never_panic(c in arb_corruption()) {
        let exe = valid_image();
        let model = MachineModel::ultrasparc();
        if let Ok(decoded) = Executable::from_bytes(&corrupt(exe, &c)) {
            drive(&decoded, &model);
        }
    }
}
