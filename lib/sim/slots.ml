type t = {
  mutable free : int array; (* stack of vacant slots *)
  mutable top : int;
  mutable limit : int;
}

let create () = { free = [||]; top = 0; limit = 0 }

let[@inline] alloc t =
  if t.top > 0 then begin
    t.top <- t.top - 1;
    Array.unsafe_get t.free t.top
  end
  else begin
    let slot = t.limit in
    t.limit <- slot + 1;
    slot
  end

let free t slot =
  if t.top = Array.length t.free then begin
    let free = Array.make (max 256 (2 * t.top)) 0 in
    Array.blit t.free 0 free 0 t.top;
    t.free <- free
  end;
  Array.unsafe_set t.free t.top slot;
  t.top <- t.top + 1

let[@inline] limit t = t.limit
let copy t = { free = Array.copy t.free; top = t.top; limit = t.limit }
