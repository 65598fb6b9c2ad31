(* SVG rendering of embedded planar graphs.

   Instances drawn by the generators carry straight-line coordinates and are
   rendered as-is; coordinate-free embeddings (e.g. from the DMP embedder)
   get a Tutte-style barycentric layout: the longest face of the rotation
   system is pinned to a circle and every other vertex is relaxed to the
   average of its neighbours, which converges to a planar drawing for
   3-connected graphs and to a readable one otherwise. *)

open Repro_graph

(* Iterative barycentric relaxation with the given boundary cycle fixed. *)
let tutte_layout g ~boundary ~iterations =
  let n = Graph.n g in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  let fixed = Array.make n false in
  let k = List.length boundary in
  List.iteri
    (fun i v ->
      let a = 2.0 *. Float.pi *. float_of_int i /. float_of_int (max 1 k) in
      xs.(v) <- cos a;
      ys.(v) <- sin a;
      fixed.(v) <- true)
    boundary;
  for _ = 1 to iterations do
    for v = 0 to n - 1 do
      if (not fixed.(v)) && Graph.degree g v > 0 then begin
        let sx = ref 0.0 and sy = ref 0.0 in
        Array.iter
          (fun u ->
            sx := !sx +. xs.(u);
            sy := !sy +. ys.(u))
          (Graph.neighbors g v);
        let d = float_of_int (Graph.degree g v) in
        xs.(v) <- !sx /. d;
        ys.(v) <- !sy /. d
      end
    done
  done;
  Array.init n (fun v -> (xs.(v), ys.(v)))

(* Coordinates for an embedded graph: its own drawing when available,
   otherwise a barycentric layout pinned to the longest face. *)
let layout emb =
  match Embedded.coords emb with
  | Some coords -> coords
  | None ->
    let g = Embedded.graph emb in
    let faces = Rotation.faces g (Embedded.rot emb) in
    let boundary =
      match
        List.fold_left
          (fun acc f ->
            match acc with
            | Some best when List.length best >= List.length f -> acc
            | _ -> Some f)
          None faces
      with
      | Some f ->
        (* Dart walk -> vertex cycle (may repeat vertices; dedup keeps the
           first occurrence so pinned positions stay distinct). *)
        let seen = Hashtbl.create 16 in
        List.filter_map
          (fun (a, _) ->
            if Hashtbl.mem seen a then None
            else begin
              Hashtbl.replace seen a ();
              Some a
            end)
          f
      | None -> []
    in
    tutte_layout g ~boundary ~iterations:200

type style = {
  width : float;
  vertex_radius : float;
  edge_color : string;
  vertex_color : string;
  highlight_color : string;
  highlight_edge_color : string;
}

let default_style =
  {
    width = 720.0;
    vertex_radius = 3.0;
    edge_color = "#8892a0";
    vertex_color = "#30343c";
    highlight_color = "#d8343c";
    highlight_edge_color = "#d8343c";
  }

(* Render to an SVG document string.  [highlight] marks a vertex set (e.g. a
   separator); [closing] draws an extra dashed edge (the cycle-closing
   fundamental edge). *)
let render ?(highlight = []) ?closing emb =
  let style = default_style in
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let coords = layout emb in
  let buf = Buffer.create 4096 in
  if n = 0 then begin
    Buffer.add_string buf
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"10\" height=\"10\"/>";
    Buffer.contents buf
  end
  else begin
    (* Fit into a [margin, width - margin] box, preserving aspect ratio. *)
    let xmin = ref infinity and xmax = ref neg_infinity in
    let ymin = ref infinity and ymax = ref neg_infinity in
    Array.iter
      (fun (x, y) ->
        if x < !xmin then xmin := x;
        if x > !xmax then xmax := x;
        if y < !ymin then ymin := y;
        if y > !ymax then ymax := y)
      coords;
    let span = max (!xmax -. !xmin) (!ymax -. !ymin) in
    let span = if span <= 0.0 then 1.0 else span in
    let margin = 24.0 in
    let scale = (style.width -. (2.0 *. margin)) /. span in
    let px (x, y) =
      ( margin +. ((x -. !xmin) *. scale),
        (* SVG's y axis points down; flip so the drawing matches the
           mathematical orientation of the coordinates. *)
        margin +. ((!ymax -. y) *. scale) )
    in
    let height = margin +. ((!ymax -. !ymin) *. scale) +. margin in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" \
          height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n"
         style.width height style.width height);
    let marked = Array.make n false in
    List.iter (fun v -> if v >= 0 && v < n then marked.(v) <- true) highlight;
    (* Edges under vertices; separator-internal edges highlighted. *)
    Graph.iter_edges g (fun u v ->
        let (x1, y1) = px coords.(u) and (x2, y2) = px coords.(v) in
        let color, w =
          if marked.(u) && marked.(v) then (style.highlight_edge_color, 2.4)
          else (style.edge_color, 1.0)
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
              stroke=\"%s\" stroke-width=\"%.1f\"/>\n"
             x1 y1 x2 y2 color w));
    (match closing with
    | Some (a, b) when a >= 0 && a < n && b >= 0 && b < n ->
      let (x1, y1) = px coords.(a) and (x2, y2) = px coords.(b) in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
            stroke=\"%s\" stroke-width=\"2.0\" stroke-dasharray=\"6 4\"/>\n"
           x1 y1 x2 y2 style.highlight_edge_color)
    | _ -> ());
    for v = 0 to n - 1 do
      let (x, y) = px coords.(v) in
      let color, r =
        if marked.(v) then (style.highlight_color, style.vertex_radius *. 1.5)
        else (style.vertex_color, style.vertex_radius)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"%s\"/>\n" x y r
           color)
    done;
    Buffer.add_string buf "</svg>\n";
    Buffer.contents buf
  end

let write_file ?highlight ?closing emb ~path =
  let doc = render ?highlight ?closing emb in
  let oc = open_out path in
  output_string oc doc;
  close_out oc
