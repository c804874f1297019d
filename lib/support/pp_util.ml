(** Pretty-printing helpers shared by all language printers. *)

let to_string pp x = Format.asprintf "%a" pp x

(** Print a table as aligned columns, used by the benchmark harness to
    regenerate the paper's tables. [rows] are lists of cells; the first row
    is treated as a header when [header] is set. *)
let render_table ?(header = true) rows =
  match rows with
  | [] -> ""
  | first :: _ ->
    let ncols = List.length first in
    let widths = Array.make ncols 0 in
    List.iter
      (fun row ->
        List.iteri
          (fun i cell ->
            if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
          row)
      rows;
    let buf = Buffer.create 256 in
    let render_row row =
      List.iteri
        (fun i cell ->
          if i > 0 then Buffer.add_string buf "  ";
          Buffer.add_string buf cell;
          if i < ncols - 1 then
            Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
        row;
      Buffer.add_char buf '\n'
    in
    (match rows with
    | hd :: tl when header ->
      render_row hd;
      let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
      Buffer.add_string buf (String.make total '-');
      Buffer.add_char buf '\n';
      List.iter render_row tl
    | _ -> List.iter render_row rows);
    Buffer.contents buf
