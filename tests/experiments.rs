//! `EXPERIMENTS.md` reproduces the output of `exhibit -- all` verbatim.
//! This test renders every exhibit and compares the result with the
//! file's output block, so a change to the models, the mapper or the
//! rearrangement that moves a number also has to regenerate the file.

/// The text between the ```` ```text ```` fence under the output heading
/// and its closing fence, with the 1-based line number in
/// `EXPERIMENTS.md` of its first line.
fn output_block(doc: &str) -> (&str, usize) {
    let heading = doc
        .find("## Output of `exhibit -- all`")
        .expect("EXPERIMENTS.md has an output heading");
    let open = "```text\n";
    let start = heading + doc[heading..].find(open).expect("an opening fence") + open.len();
    let len = doc[start..].find("\n```").expect("a closing fence");
    (&doc[start..start + len], doc[..start].lines().count() + 1)
}

#[test]
fn experiments_md_matches_the_rendered_exhibits() {
    let (block, first_line) = output_block(include_str!("../EXPERIMENTS.md"));
    let rendered = rsp_bench::all_exhibits();
    let mut want = block.lines();
    let mut got = rendered.lines();
    for line in first_line.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (want, got) => assert_eq!(
                want, got,
                "EXPERIMENTS.md line {line} differs from `exhibit -- all` \
                 (left: the file, right: the exhibits); regenerate the block"
            ),
        }
    }
}
