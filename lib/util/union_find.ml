(* Disjoint-set forest with union by rank and path halving. *)

type t = {
  parent : int array;
  rank : int array;
  size : int array;
  mutable components : int;
}

let of_sizes sizes =
  let n = Array.length sizes in
  {
    parent = Array.init n (fun i -> i);
    rank = Array.make n 0;
    size = sizes;
    components = n;
  }

let create n = of_sizes (Array.make n 1)

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    (* Path halving: point x at its grandparent. *)
    t.parent.(x) <- t.parent.(p);
    find t t.parent.(x)
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb =
      if t.rank.(ra) < t.rank.(rb) then rb, ra else ra, rb
    in
    t.parent.(rb) <- ra;
    t.size.(ra) <- t.size.(ra) + t.size.(rb);
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    t.components <- t.components - 1;
    true
  end

let same t a b = find t a = find t b

let component_size t x = t.size.(find t x)

let components t = t.components
