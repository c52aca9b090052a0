module albatross

go 1.23
