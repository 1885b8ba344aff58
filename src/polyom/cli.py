"""Command-line entry points.

Exit codes: 0 success, 1 a check or soundness failure, 2 malformed
input (also what click uses for bad flags, and `enumerate --shard`
with `--jobs` above 1), a catalog witness that does
not realize its record, an --out file that cannot be written, a worker
process of `enumerate --jobs` that died or an input too large for
memory.  Every refusal is one `error:` line on stderr, never a
traceback.  Summary lines are machine-parseable, one key=value pair per
token.
"""

from __future__ import annotations

import functools
import sys
from concurrent.futures.process import BrokenProcessPool

import click

from . import catalog as cat_mod
from .axioms import check_cocircuit_axioms, check_degree_k, las_vergnas_scan
from .chirotope import Chirotope, char_signs, cocircuit_vectors, from_text, to_text
from .enumeration import enumerate_chirotopes, enumerate_sharded, partition_search
from .errors import DegenerateConfigError, InputError, SoundnessError
from .points import chirotope_of, parse_points
from .realizability import realize_random, verify_catalog_witnesses
from .render import render_svg


def _guarded(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, UnicodeDecodeError, BrokenProcessPool) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except MemoryError as exc:
            click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
            sys.exit(2)
        except (SoundnessError, DegenerateConfigError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return inner


def _write_out(path, what, write, content):
    """write(path, content), with a file that cannot be written as bad input."""
    try:
        write(path, content)
    except OSError as exc:
        raise InputError(f"{path}: cannot write {what} ({exc.strerror or exc})") from exc


def _read_verified(path):
    """The catalog at path, with every witness checked against its record."""
    catal = cat_mod.read_catalog(path)
    bad = verify_catalog_witnesses(catal)
    if bad:
        # record i is on line i + 2, below the header
        raise InputError(f"{path}: line {bad[0] + 2}: witness does not realize its record")
    return catal


def _write_text(path, text):
    """text to the file at path, or to stdout for -."""
    with click.open_file(path, "w") as fh:
        fh.write(text)


@click.group()
def main():
    """Degree-k sign maps of planar point sets."""


@main.command()
@click.argument("points", type=click.File("r"))
@click.option("--k", type=int, required=True, help="Degree of the sign map.")
@click.option("--out", type=click.Path(dir_okay=False, allow_dash=True), default="-", help="Output file.")
@_guarded
def chirotope(points, k, out):
    """Compute the degree-k chirotope of a points file."""
    config = parse_points(points.read())
    chi = chirotope_of(config, k)
    if not chi.is_uniform():
        click.echo("warning: sign map is not uniform (some tuples degenerate)", err=True)
    _write_out(out, "chirotope", _write_text, to_text(chi))


@main.command()
@click.argument("chirotope_file", type=click.File("r"))
@click.option("--json", "as_json", is_flag=True, help="Emit JSON reports.")
@_guarded
def check(chirotope_file, as_json):
    """Check the degree-k and cocircuit axioms of a chirotope file."""
    chi = from_text(chirotope_file.read())
    rep = check_degree_k(chi)
    vectors = cocircuit_vectors(chi)
    coc = check_cocircuit_axioms(vectors)
    if as_json:
        click.echo(
            '{"degree_k": ' + rep.to_json() + ', "cocircuits": ' + coc.to_json() + "}"
        )
    else:
        click.echo(f"degree_k: {rep.text()}")
        click.echo(f"cocircuits: {coc.text()}")
    if not (rep and coc):
        sys.exit(1)


@main.command("enumerate")
@click.option("--n", type=int, required=True, help="Number of elements.")
@click.option("--k", type=int, required=True, help="Degree.")
@click.option("--out", type=click.Path(dir_okay=False), help="Catalog output path.")
@click.option("--shards", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--shard", type=int, default=None, help="Run only this shard.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@_guarded
def enumerate_cmd(n, k, out, shards, shard, jobs):
    """Enumerate all degree-k chirotopes on [n] up to global sign."""
    if shard is not None and jobs > 1:
        raise InputError("--jobs cannot be combined with --shard, which runs one shard in this process")
    if shard is not None:
        result = partition_search(n, k, shard, shards)
    elif shards > 1 or jobs > 1:
        result = enumerate_sharded(n, k, max(shards, jobs), jobs=jobs)
    else:
        result = enumerate_chirotopes(n, k)
    if out:
        _write_out(out, "catalog", cat_mod.write_catalog, cat_mod.from_enumeration(result))
    click.echo(result.summary())


@main.command()
@click.option("--catalog", "catalog_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--trials", type=click.IntRange(min=0), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--range", "range_", type=int, default=None, help="Single coordinate range override.")
@click.option("--out", type=click.Path(dir_okay=False), help="Tagged catalog output path.")
@_guarded
def realize(catalog_path, trials, seed, range_, out):
    """Search for realizing point configurations of catalog records."""
    catal = _read_verified(catalog_path)
    ranges = None if range_ is None else (range_,)
    tagged, stats = realize_random(catal, trials, seed, ranges=ranges)
    if out:
        _write_out(out, "catalog", cat_mod.write_catalog, tagged)
    click.echo(f"{stats.summary()} total={len(catal)}")


@main.command()
@click.option("--catalog", "catalog_path", type=click.Path(exists=True, dir_okay=False), required=True)
@_guarded
def scan(catalog_path):
    """Extreme-point census over all reorientations of each record."""
    catal = _read_verified(catalog_path)
    found_total = 0
    for i, signs in enumerate(char_signs(catal.chars)):
        rep = las_vergnas_scan(Chirotope(catal.n, catal.k, signs))
        found_total += 1 if rep.found else 0
        hist = ";".join(f"{c}:{v}" for c, v in sorted(rep.histogram.items()))
        best = ",".join(map(str, rep.best_set)) if rep.best_set else "-"
        click.echo(
            f"record={i} acyclic={rep.acyclic} found={int(rep.found)} "
            f"best_count={rep.best_count} best_set={best} hist={hist}"
        )
    click.echo(f"records={len(catal)} found={found_total}")


@main.command()
@click.argument("points", type=click.File("r"))
@click.option("--k", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False, allow_dash=True), default="-")
@click.option("--width", type=int, default=640, show_default=True)
@click.option("--height", type=int, default=480, show_default=True)
@click.option("--samples", type=int, default=256, show_default=True)
@click.option("--annotate", is_flag=True, help="List consecutive tuple signs.")
@_guarded
def render(points, k, out, width, height, samples, annotate):
    """Render a points file and its interpolating curves to SVG."""
    config = parse_points(points.read())
    svg = render_svg(config, k, width=width, height=height, samples=samples, annotate=annotate)
    _write_out(out, "SVG", _write_text, svg)


if __name__ == "__main__":
    main()
