(* [base] and [len] stay empty while every line is its own block — the
   common case, since only variable-granularity allocations define
   multi-line blocks — so a machine without such allocations carries no
   per-line tables (two words per line, 1 MB at the 4 MB heap floor). *)
type t = { nlines : int; mutable base : int array; mutable len : int array }

let create layout = { nlines = Layout.nlines layout; base = [||]; len = [||] }

let define t ~first_line ~nlines =
  assert (nlines > 0);
  assert (first_line >= 0 && first_line + nlines <= t.nlines);
  if nlines > 1 || Array.length t.base > 0 then begin
    if Array.length t.base = 0 then begin
      t.base <- Array.init t.nlines (fun i -> i);
      t.len <- Array.make t.nlines 1
    end;
    for l = first_line to first_line + nlines - 1 do
      t.base.(l) <- first_line;
      t.len.(l) <- nlines
    done
  end

let base_line t l =
  assert (l >= 0 && l < t.nlines);
  if Array.length t.base = 0 then l else t.base.(l)

let block_nlines t l =
  assert (l >= 0 && l < t.nlines);
  if Array.length t.len = 0 then 1 else t.len.(l)

let base_addr t layout addr =
  Layout.addr_of_line layout (base_line t (Layout.line_of layout addr))

let size_bytes t layout addr =
  block_nlines t (Layout.line_of layout addr) * layout.Layout.line_size
