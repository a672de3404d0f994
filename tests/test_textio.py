"""The shared tab-separated reader, through every format that uses it."""

import pytest

from morphlex import cli
from morphlex.evaluation import DictionaryFormatError, read_eval_dictionary, read_seed_dictionary
from morphlex.morph import MorphFormatError, load_rule_table, read_unimorph

# name: (reader, its error, header lines, a good row, a row with a wrong
# column count, a row with a bad tag or None when the format has no tag)
READERS = {
    "unimorph": (read_unimorph, MorphFormatError, "",
                 "cantar\tcanto\tV;PRS;1;SG", "cantar\tcanto", "cantar\tcantas\tV;;SG"),
    "eval-dictionary": (read_eval_dictionary, DictionaryFormatError, "",
                        "canto\tsing\tV;PRS;1;SG", "canto\tsing\tV\tx", "cantas\tsing\tV;;SG"),
    "seed-dictionary": (read_seed_dictionary, DictionaryFormatError, "",
                        "canto\tsing", "canto", None),
    "inflect-rules": (load_rule_table, MorphFormatError, "MORPHLEX-RULES v1 inflect\n",
                      "V;PRS;1;SG\tar\to\t2", "V;PRS;1;SG\tar\to", "V;;SG\tar\tas\t1"),
    "analyze-rules": (load_rule_table, MorphFormatError, "MORPHLEX-RULES v1 analyze\n",
                      "o\tar\tV;PRS;1;SG\t2", "o\tar\tV;PRS;1;SG\t2\t3", "as\tar\tV;;SG\t1"),
    "oracle-analyses": (cli._read_oracle_analyses, DictionaryFormatError, "",
                        "canto\tcantar\tV;PRS;1;SG", "canto\tcantar", "cantas\tcantar\tV;;SG"),
}


def line_three(header: str, good: str, bad: str) -> str:
    """A file whose line 3 is ``bad``, after the header and good rows."""
    rows = [good] * (2 - header.count("\n"))
    return header + "\n".join(rows + [bad]) + "\n"


@pytest.mark.parametrize("name", sorted(READERS))
def test_wrong_column_count_names_line_three(tmp_path, name):
    reader, error, header, good, wrong_columns, _ = READERS[name]
    path = tmp_path / "f.tsv"
    path.write_text(line_three(header, good, wrong_columns), encoding="utf-8")
    with pytest.raises(error, match="line 3: expected") as info:
        reader(str(path))
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", sorted(n for n, spec in READERS.items() if spec[5]))
def test_bad_tag_names_line_three(tmp_path, name):
    reader, error, header, good, _, bad_tag = READERS[name]
    path = tmp_path / "f.tsv"
    path.write_text(line_three(header, good, bad_tag), encoding="utf-8")
    with pytest.raises(error, match="line 3: empty feature in tag 'V;;SG'") as info:
        reader(str(path))
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", sorted(READERS))
def test_blank_and_whitespace_lines_are_skipped(tmp_path, name):
    reader, _, header, good, _, _ = READERS[name]
    path = tmp_path / "f.tsv"
    path.write_text(header + good + "\n", encoding="utf-8")
    plain = reader(str(path))
    path.write_text(header + f"\n  \n{good}\n\t\n\t\t\t\n \t \n", encoding="utf-8")
    assert reader(str(path)) == plain
